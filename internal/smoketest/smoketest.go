// Package smoketest supports in-package smoke tests of main packages:
// it runs a program's main function with controlled os.Args, captures
// everything written to os.Stdout, and returns it. The smoke contract
// is deliberately minimal — the program must terminate without
// panicking or exiting non-zero (either kills the test binary), and
// the caller asserts on a stable fragment of the output.
package smoketest

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

// Run invokes fn (typically a main function) with os.Args replaced by
// args and a fresh flag.CommandLine, so one test binary can run a main
// more than once, and returns what fn printed to stdout. Stdout is
// drained on a separate goroutine so programs that print more than a
// pipe buffer don't wedge.
func Run(t *testing.T, args []string, fn func()) (out string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("smoketest: pipe: %v", err)
	}
	oldArgs, oldStdout, oldFlags := os.Args, os.Stdout, flag.CommandLine
	os.Args, os.Stdout = args, w
	flag.CommandLine = flag.NewFlagSet(args[0], flag.ExitOnError)
	var buf strings.Builder
	done := make(chan struct{})
	go func() {
		io.Copy(&buf, r)
		close(done)
	}()
	defer func() {
		os.Args, os.Stdout, flag.CommandLine = oldArgs, oldStdout, oldFlags
		w.Close()
		<-done
		r.Close()
		out = buf.String()
	}()
	fn()
	return
}
