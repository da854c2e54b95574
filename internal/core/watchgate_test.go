package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/clock"
)

// recordingSink records every Published call, for gate tests.
type recordingSink struct {
	mu   sync.Mutex
	vers []uint64
}

func (s *recordingSink) Published(v uint64) {
	s.mu.Lock()
	s.vers = append(s.vers, v)
	s.mu.Unlock()
}

// take returns the versions recorded since the last take.
func (s *recordingSink) take() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	vers := s.vers
	s.vers = nil
	return vers
}

func (s *recordingSink) versions() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.vers...)
}

func TestWatchGateNotifiesOnPublish(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "src", 1.0)
	defineDerived(r, "sum", Dep(Self(), "src"))
	sub, err := r.Subscribe("sum")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	sink := &recordingSink{}
	v0, err := r.Watch("sum", sink)
	if err != nil {
		t.Fatal(err)
	}
	if v0 != 1 {
		t.Fatalf("Watch anchor = %d, want 1 (initial compute)", v0)
	}
	if got, ok := r.ItemVersion("sum"); !ok || got != v0 {
		t.Fatalf("ItemVersion = %d, %v; want %d, true", got, ok, v0)
	}

	r.NotifyChanged("src") // triggers a refresh of sum
	vers := sink.versions()
	if len(vers) != 1 || vers[0] != 2 {
		t.Fatalf("sink saw %v, want [2]", vers)
	}

	r.Unwatch("sum")
	r.NotifyChanged("src")
	if got := sink.versions(); len(got) != 1 {
		t.Fatalf("sink saw %v after Unwatch, want no new notifications", got)
	}
}

// peekingSink reads the item back inside Published, as the watch hub's
// catch-up does: a sink told version v must read the value published
// at v (or a newer one), never the one before it.
type peekingSink struct {
	r    *Registry
	kind Kind
	seen map[uint64]Value
}

func (s *peekingSink) Published(v uint64) {
	val, _ := s.r.Peek(s.kind)
	s.seen[v] = val
}

// TestWatchSinkPeeksPublishedValue pins store's order — the snapshot
// first, then the version that announces it — on one goroutine: each
// NotifyChanged on the source refreshes sum to a new value, and the
// sink's Peek inside Published(v) must already see it.
func TestWatchSinkPeeksPublishedValue(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	state := 0.0
	r.MustDefine(&Definition{Kind: "src", Build: func(*BuildContext) (Handler, error) {
		return NewOnDemand(func(clock.Time) (Value, error) { return state, nil }), nil
	}})
	defineDerived(r, "sum", Dep(Self(), "src"))
	sub, err := r.Subscribe("sum")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	sink := &peekingSink{r: r, kind: "sum", seen: map[uint64]Value{}}
	v0, err := r.Watch("sum", sink)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 3; k++ {
		state = float64(k)
		r.NotifyChanged("src")
		if got, ok := sink.seen[v0+k]; !ok || got != state {
			t.Fatalf("Published(%d) peeked %v (reported %v); want %v", v0+k, got, ok, state)
		}
	}
}

func TestWatchGateErrors(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "src", 1.0)
	if _, err := r.Watch("src", &recordingSink{}); !errors.Is(err, ErrUnsubscribed) {
		t.Fatalf("Watch on non-included item: err = %v, want ErrUnsubscribed", err)
	}
	if _, err := r.Watch("src", nil); err == nil {
		t.Fatal("Watch with nil sink succeeded")
	}
	r.Unwatch("src") // no-op on a never-watched kind
	if _, ok := r.ItemVersion("src"); ok {
		t.Fatal("ItemVersion ok on non-included item")
	}
}

// TestWatchSinkEndsWithItem pins that a watch sink lives and dies with
// its item: excluding the item ends the sink, a re-included item starts
// unwatched, and a Watch that fails with ErrUnsubscribed leaves nothing
// behind for a later inclusion.
func TestWatchSinkEndsWithItem(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "src", 1.0)
	defineDerived(r, "sum", Dep(Self(), "src"))
	early := &recordingSink{}
	if _, err := r.Watch("sum", early); !errors.Is(err, ErrUnsubscribed) {
		t.Fatalf("Watch on an excluded kind: err = %v, want ErrUnsubscribed", err)
	}
	sub, err := r.Subscribe("sum")
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	if _, err := r.Watch("sum", sink); err != nil {
		t.Fatal(err)
	}
	r.NotifyChanged("src")
	if n := len(sink.versions()); n != 1 {
		t.Fatalf("sink saw %d publications of the watched item, want 1", n)
	}
	sub.Unsubscribe()

	sub2, err := r.Subscribe("sum")
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Unsubscribe()
	r.NotifyChanged("src")
	if vers := sink.versions(); len(vers) != 1 {
		t.Fatalf("sink of the released item saw %v, want only its own item's publication", vers)
	}
	if vers := early.versions(); len(vers) != 0 {
		t.Fatalf("sink whose Watch failed saw %v, want nothing", vers)
	}
	if v, _ := r.ItemVersion("sum"); v != 2 {
		t.Fatalf("re-included item at version %d, want 2 (initial compute + one refresh)", v)
	}
}
