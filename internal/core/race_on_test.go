//go:build race

package core

// raceEnabled reports that the race detector is on: it allocates on
// paths that are allocation-free (or cheaper) without it, so
// allocation-count guards skip themselves.
const raceEnabled = true
