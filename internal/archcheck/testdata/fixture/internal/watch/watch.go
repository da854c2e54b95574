package watch

func W() int { return 1 }
