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

	"internal/leakcheck.Main":                     entryPoint + ": TestMain of modelcheck and watch",
	"internal/smoketest.Run":                      entryPoint + ": the smoke tests of cmd/* and examples/*",
	"internal/modelcheck.RunClockSkew":            entryPoint,
	"internal/modelcheck.RunConcurrent":           entryPoint,
	"internal/modelcheck.RunConcurrentMigrations": entryPoint,
	"internal/modelcheck.RunCrashRecovery":        entryPoint,
	"internal/modelcheck.RunFaultBuild":           entryPoint,
	"internal/modelcheck.RunFaultFlappingCompute": entryPoint,
	"internal/modelcheck.RunFaultHungCompute":     entryPoint,
	"internal/modelcheck.RunFaultPeriodicPanic":   entryPoint,
	"internal/modelcheck.RunFaultSlowPeriodic":    entryPoint,
	"internal/modelcheck.RunRedefineRecovery":     entryPoint,
	"internal/modelcheck.RunSequential":           entryPoint,
	"internal/modelcheck.RunSequentialAdaptive":   entryPoint,
	"internal/modelcheck.RunSequentialDeltaOff":   entryPoint,
	"internal/modelcheck.RunSequentialMemo":       entryPoint,
	"internal/modelcheck.RunTornWrite":            entryPoint,

	"pipes.NewRelay":                  pipesAPI,
	"pipes.NewRelayServer":            pipesAPI,
	"pipes.Stream.Aggregate":          pipesAPI,
	"pipes.Stream.CountWindow":        pipesAPI,
	"pipes.Stream.Map":                pipesAPI,
	"pipes.Stream.Migrate":            pipesAPI,
	"pipes.Stream.SetDropProbability": pipesAPI,
	"pipes.Stream.Union":              pipesAPI,
	"pipes.System.Checkpoint":         pipesAPI,
	"pipes.System.CloseDurability":    pipesAPI,
	"pipes.System.DurabilityErr":      pipesAPI,
	"pipes.System.NewWatchServer":     pipesAPI,
	"pipes.System.OpenDurability":     pipesAPI,
	"pipes.System.RunToCompletion":    pipesAPI,
	"pipes.System.WatchMux":           pipesAPI,
	"pipes.WithBoundedUpdaterPool":    pipesAPI,
	"pipes.WithDurability":            pipesAPI,
	"pipes.WithMemoizedOnDemand":      pipesAPI,
	"pipes.WithoutDeltaPropagation":   pipesAPI,
}

// maxAllowlisted caps the allowlist's length. It only falls.
const maxAllowlisted = 38
