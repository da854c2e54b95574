// Package modelcheck is a model-based correctness harness for the
// metadata framework (internal/core).
//
// It runs the real, dependency-scope-locked implementation against a
// deliberately naive sequential reference model implementing the
// paper's subscribe/unsubscribe/define/trigger/periodic semantics, and
// fails on any divergence. The harness has three parts:
//
//   - an operation DSL plus a seeded generator (workload_test.go) producing
//     randomized topologies (registries, cross-registry dependencies,
//     modules) and op scripts (subscribe/unsubscribe, define, module
//     attach, FireEvent/NotifyChanged, migrate, virtual-clock
//     advances), all replayable from the printed seed;
//
//   - one driver (driver_test.go): applyOp is the only code that applies an
//     op to the real system. The lockstep loop mirrors every op into
//     the model and compares the full observable state — inclusion
//     sets, reference counts, dependency edges, mechanisms, and exact
//     metadata values including periodic window boundaries — after
//     each one; its after-op hook carries the adaptive controller
//     (adaptive_test.go) and the crash harness's checkpoints (recoverrun_test.go).
//     The concurrent runner applies the same seeded workload through N
//     goroutines over a pool updater, optionally beside a migrator,
//     then checks quiescent-state equivalence (structure and refcounts
//     are interleaving-independent for the commutative op mix it uses).
//     Both check the standing invariants: refcount conservation,
//     inclusion closure, handler lifecycle, union-find scope
//     consistency (core.VerifyIntegrity), unwedged component locks
//     (core.ScopesUnlocked), and the Figure 4 isolation condition for
//     periodic values (windows tile time with no gaps or overlaps);
//
//   - a fault-injection layer (faultrun_test.go): panicking or failing Build
//     mid-traversal, panicking periodic computes on the worker pool,
//     slow updaters that outlive their window, and clock skew between
//     periodic windows, verifying the system degrades as DESIGN.md
//     specifies — errors surface on Value()/Subscribe without leaking
//     references, wedging scope locks, or corrupting snapshots.
//
// Every test failure prints the workload seed; re-run a single seed
// with e.g. `go test ./internal/modelcheck -run 'Sequential/seed=42'`.
package modelcheck
