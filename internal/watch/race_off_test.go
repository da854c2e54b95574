//go:build !race

package watch

const raceEnabled = false
