package archcheck

// entryPoint: a function that tests run as their entry point.
const entryPoint = "test entry point"

// allowlist names every function and method that keeps no non-test
// caller, each with its reason. It may only shrink: an entry that the
// rule no longer reports fails TestEveryFunctionHasACaller.
var allowlist = map[string]string{
	"internal/clock.Virtual.PendingEvents": "test observer: core's TestPeriodicStopsOnUnsubscribe counts the clock events an unsubscribed periodic item leaves",
	"internal/watch.Relay.ItemVersion":     "test observer: modelcheck's relay delivery suites poll it as their quiescence anchor",
	"internal/core.Registry.IsIncluded":    "test observer: the tests of core, ops, sched, resource, persist, watch, monitor, pipes and modelcheck, and pipes' ExampleStream_Subscribe doc example, check inclusion with it",
	"internal/core.Registry.ItemVersion":   "test observer: the tests of core, persist and pipes and modelcheck's recovery and delivery suites read an item's publication version with it",

	"internal/core.ScopesUnlocked":          "the checked-build re-entry assertion of ROADMAP item 1b: core's fault, fuzz and migrate tests and modelcheck's driver assert unwedged scope locks with it until that build calls it",
	"internal/core.WithoutDeltaPropagation": "the reference twin of the delta channel: core's delta tests and modelcheck's delta-off lockstep and stress suites run the full fold with it to prove the channel exact",

	"internal/leakcheck.Main": entryPoint + ": TestMain of modelcheck and watch",
	"internal/smoketest.Run":  entryPoint + ": the smoke tests of cmd/* and examples/*",
}

// maxAllowlisted caps the allowlist's length. It only falls.
const maxAllowlisted = 8
