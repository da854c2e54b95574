package archcheck

// The reasons an allowlisted function may keep no non-test caller.
const (
	// pipesAPI: the facade's surface that only pipes' own tests call,
	// until a binary or an example runs on it or it goes.
	pipesAPI = "public API of pipes that no binary or example calls yet"
	// entryPoint: a function that tests run as their entry point.
	entryPoint = "test entry point"
)

// allowlist names every function and method that keeps no non-test
// caller, each with its reason. It may only shrink: an entry that the
// rule no longer reports fails TestEveryFunctionHasACaller.
var allowlist = map[string]string{
	"internal/clock.Virtual.PendingEvents": "test observer: core's TestPeriodicStopsOnUnsubscribe counts the clock events an unsubscribed periodic item leaves",
	"internal/watch.Relay.ItemVersion":     "test observer: modelcheck's relay delivery suites poll it as their quiescence anchor",
	"internal/core.Registry.IsIncluded":    "test observer: the tests of core, ops, sched, resource, persist, watch, monitor, pipes and modelcheck, and pipes' ExampleStream_Subscribe doc example, check inclusion with it",
	"internal/core.Registry.ItemVersion":   "test observer: the tests of core, persist and pipes and modelcheck's recovery and delivery suites read an item's publication version with it",

	"internal/core.Registry.DetachModule": "the paper's module exchange (PAPER.md §1 item 4): core's scope and slot-table tests and modelcheck's detach op call it until pipes offers it (ROADMAP item 20b) or it goes",
	"internal/core.ScopesUnlocked":        "the checked-build re-entry assertion of ROADMAP item 1b: core's fault, fuzz and migrate tests and modelcheck's driver assert unwedged scope locks with it until that build calls it",

	"internal/leakcheck.Main": entryPoint + ": TestMain of modelcheck and watch",
	"internal/smoketest.Run":  entryPoint + ": the smoke tests of cmd/* and examples/*",

	"pipes.Stream.Aggregate":          pipesAPI,
	"pipes.Stream.CountWindow":        pipesAPI,
	"pipes.Stream.Map":                pipesAPI,
	"pipes.Stream.Migrate":            pipesAPI,
	"pipes.Stream.SetDropProbability": pipesAPI,
	"pipes.Stream.Union":              pipesAPI,
	"pipes.System.Checkpoint":         pipesAPI,
	"pipes.System.RunToCompletion":    pipesAPI,
	"pipes.System.WatchMux":           pipesAPI,
	"pipes.WithBoundedUpdaterPool":    pipesAPI,
	"pipes.WithMemoizedOnDemand":      pipesAPI,
	"pipes.WithoutDeltaPropagation":   pipesAPI,
}

// maxAllowlisted caps the allowlist's length. It only falls.
const maxAllowlisted = 20
