//go:build race

package watch

// raceEnabled reports that the race detector is on: it allocates on
// paths that are allocation-free without it, so allocation-count
// guards skip themselves.
const raceEnabled = true
