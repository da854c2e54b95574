// Package core breaks import-graph: its layer may not import watch.
package core

import "fixture/internal/watch"

func Core() int { return watch.W() }
