//go:build race

package persist

// raceEnabled reports that the race detector is on: it allocates on
// its own account, so allocation-count guards skip themselves.
const raceEnabled = true
