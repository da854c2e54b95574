// Package other breaks one-crc-importer, testing-importers,
// every-function-has-a-caller and exported-ceiling.
package other

import (
	"hash/crc32"
	"testing"

	"fixture/internal/frame"
)

func Check(b []byte) bool {
	var box Box[int]
	box.set(1)
	return crc32.ChecksumIEEE(b) == frame.Sum(b) && box.get() == 1 && !testing.Testing()
}

// Uncalled has no caller.
func Uncalled() {}

// loop only calls itself, which is not a caller.
func loop(n int) int {
	if n == 0 {
		return 0
	}
	return loop(n - 1)
}

// Err is used by no other package; its Error method is required by the
// error interface, so it needs no caller.
type Err struct{}

func (Err) Error() string { return "err" }

// Box's methods are called through an instantiation, which counts.
type Box[T any] struct{ v T }

func (b *Box[T]) set(v T) { b.v = v }
func (b *Box[T]) get() T  { return b.v }
