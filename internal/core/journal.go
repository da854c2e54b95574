package core

import "repro/internal/clock"

// Structural journal: the core-side half of the durability plane
// (internal/persist). Every structural mutation that already bumps the
// structural version — external subscribe/unsubscribe, persistable
// definition registration, live mechanism migration — is also reported
// to the installed Journal, in commit order, while the mutating
// operation still holds the dependency-scope component lock. WAL order
// therefore equals commit order per component, which is what makes
// replay reproduce the pre-crash topology exactly.
//
// Only *external* subscriptions are journaled: the transitive includes
// a subscription performs are derived state, reproduced by replaying
// the external op. Only definitions that declare a persistence codec
// (Definition.Persist) are journaled: a Build closure cannot be
// serialized, so non-persistable definitions are expected to be
// re-registered by application code before recovery replays the log.

// journalOpKind identifies one structural operation class.
type journalOpKind uint8

const (
	// JournalDefine records Registry.Define of a definition that
	// declares a persistence codec.
	JournalDefine journalOpKind = iota + 1
	// JournalSubscribe records a successful external Registry.Subscribe.
	JournalSubscribe
	// JournalUnsubscribe records Subscription.Unsubscribe.
	JournalUnsubscribe
	// JournalMigrate records a successful, non-no-op Registry.Migrate.
	JournalMigrate
)

// JournalOp is one recorded structural mutation.
type JournalOp struct {
	Op       journalOpKind
	Registry string
	Kind     Kind
	// To and Window carry the target mechanism (and resolved periodic
	// window) of a JournalMigrate; zero otherwise.
	To     Mechanism
	Window clock.Duration
	// Codec and CodecArgs carry Definition.Persist/PersistArgs of a
	// JournalDefine; empty otherwise.
	Codec     string
	CodecArgs string
}

// Journal receives structural ops as they commit. Record is invoked
// with the mutating operation's dependency-scope lock held, so
// implementations must not call back into structural operations
// (Subscribe, Define, Migrate, lockScope takers) — node-level read
// primitives (Peek, ItemVersion, Health, Included, AppendSlots) are safe.
type Journal interface {
	Record(op JournalOp)
}

// SetJournal installs (or, with nil, removes) the env's structural
// journal. The usual installer is internal/persist, which attaches the
// journal after recovery has replayed the previous log — recovery's own
// replayed operations are therefore never re-journaled.
func (e *Env) SetJournal(j Journal) {
	if j == nil {
		e.journal.Store(nil)
		return
	}
	cell := new(Journal)
	*cell = j
	e.journal.Store(cell)
}

// journalRecord hands op to the installed journal; with none installed
// it costs one atomic load and a predicted-false branch.
func (e *Env) journalRecord(op JournalOp) {
	if cell := e.journal.Load(); cell != nil {
		(*cell).Record(op)
	}
}
