package stream

import (
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

func TestNewElementIsPoint(t *testing.T) {
	e := NewElement(Tuple{1}, 42)
	if e.TS != 42 || e.End != 43 {
		t.Fatalf("NewElement = [%d,%d), want [42,43)", e.TS, e.End)
	}
}

func TestOverlaps(t *testing.T) {
	mk := func(ts, end clock.Time) Element { return Element{TS: ts, End: end} }
	cases := []struct {
		a, b Element
		want bool
	}{
		{mk(0, 10), mk(5, 15), true},
		{mk(5, 15), mk(0, 10), true},
		{mk(0, 10), mk(10, 20), false}, // half-open: touching intervals do not overlap
		{mk(10, 20), mk(0, 10), false},
		{mk(0, 10), mk(2, 5), true}, // containment
		{mk(0, 1), mk(0, 1), true},  // identical points
		{mk(0, 1), mk(1, 2), false},
	}
	for i, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("case %d: %v.Overlaps(%v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("case %d: Overlaps not symmetric", i)
		}
	}
}

// Property: Overlaps is symmetric and an interval always overlaps
// itself when non-empty.
func TestPropertyOverlapsSymmetric(t *testing.T) {
	f := func(a1, d1, a2, d2 uint8) bool {
		e := Element{TS: clock.Time(a1), End: clock.Time(a1) + clock.Time(d1%50) + 1}
		g := Element{TS: clock.Time(a2), End: clock.Time(a2) + clock.Time(d2%50) + 1}
		return e.Overlaps(g) == g.Overlaps(e) && e.Overlaps(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTupleConcat(t *testing.T) {
	c := Tuple{1, 2}.Concat(Tuple{3})
	if len(c) != 3 || c[0] != 1 || c[2] != 3 {
		t.Fatalf("Concat = %v", c)
	}
}

func TestTupleString(t *testing.T) {
	if got := (Tuple{1, "a"}).String(); got != "(1, a)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestSchemaArity(t *testing.T) {
	s := Schema{Name: "s", Fields: []Field{{"a", "int"}, {"b", "float"}}}
	if s.Arity() != 2 {
		t.Fatalf("Arity = %d, want 2", s.Arity())
	}
}

func TestSchemaConcat(t *testing.T) {
	a := Schema{Name: "a", Fields: []Field{{"x", "int"}}}
	b := Schema{Name: "b", Fields: []Field{{"y", "int"}, {"z", "int"}}}
	c := a.Concat(b)
	if c.Arity() != 3 {
		t.Fatalf("Concat arity = %d, want 3", c.Arity())
	}
	if c.Name != "a⋈b" {
		t.Fatalf("Concat name = %q", c.Name)
	}
}

func TestSchemaElementSizeGrowsWithArity(t *testing.T) {
	small := Schema{Fields: []Field{{"a", "int"}}}
	big := Schema{Fields: make([]Field, 10)}
	if small.ElementSize() >= big.ElementSize() {
		t.Fatal("ElementSize should grow with arity")
	}
	if small.ElementSize() <= 0 {
		t.Fatal("ElementSize must be positive")
	}
}
