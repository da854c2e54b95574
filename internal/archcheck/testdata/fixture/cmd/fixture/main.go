package main

import (
	"fixture/internal/core"
	"fixture/internal/other"
)

func main() { println(core.Core(), other.Check(nil)) }
