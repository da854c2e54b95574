// Package leakcheck fails a test binary whose tests leave goroutines
// running. A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// settle bounds how long Main waits for goroutines the tests stopped
// to finish exiting.
const settle = 5 * time.Second

// Main runs the tests and exits with their status. If they passed, it
// closes the default transport's idle connections (their read and write
// loops outlive every client that used them), then waits up to settle
// for the goroutine count to fall back to its count before the tests.
// If it does not, Main prints every goroutine's stack and fails.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		deadline := time.Now().Add(settle)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines after the tests, %d before:\n", n, before)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
			code = 1
		}
	}
	os.Exit(code)
}
