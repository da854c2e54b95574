// Package stream defines the data model of the stream processing
// system — stream elements, tuples, schemas — and synthetic stream
// generators used as raw data sources.
//
// Following the time-based sliding-window model of the paper (Section
// 2.5), every stream element carries a timestamp and a validity: the
// half-open interval [TS, End) during which the element participates in
// window-based operators. Sources emit point elements (End = TS+1); the
// window operator widens End according to the window size.
package stream

import (
	"fmt"
	"strings"

	"repro/internal/clock"
)

// Value is a single attribute value inside a tuple.
type Value = any

// Tuple is an ordered list of attribute values.
type Tuple []Value

// Concat returns a new tuple holding t's values followed by u's.
func (t Tuple) Concat(u Tuple) Tuple {
	c := make(Tuple, 0, len(t)+len(u))
	c = append(c, t...)
	c = append(c, u...)
	return c
}

// String renders the tuple for logs and test failures.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = fmt.Sprint(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Element is one item of a data stream.
type Element struct {
	// Tuple carries the payload attributes.
	Tuple Tuple
	// TS is the application timestamp of the element.
	TS clock.Time
	// End is the exclusive end of the element's validity interval.
	// Window operators set End = TS + window size; raw source
	// elements have End = TS + 1 (a point in time).
	End clock.Time
}

// NewElement returns a point element valid exactly at ts.
func NewElement(tuple Tuple, ts clock.Time) Element {
	return Element{Tuple: tuple, TS: ts, End: ts + 1}
}

// Overlaps reports whether the validity intervals of e and f intersect.
// This is the join condition on time used by sliding-window joins.
func (e Element) Overlaps(f Element) bool {
	return e.TS < f.End && f.TS < e.End
}

// String renders the element for logs and test failures.
func (e Element) String() string {
	return fmt.Sprintf("%v@[%d,%d)", e.Tuple, e.TS, e.End)
}

// Schema describes the attributes of a stream. Schema information is
// the canonical example of static metadata in the paper (Figure 2).
type Schema struct {
	// Name identifies the stream.
	Name string
	// Fields lists the attribute descriptors in tuple order.
	Fields []Field
}

// Field describes one attribute of a schema.
type Field struct {
	// Name is the attribute name.
	Name string
	// Type is a free-form type label such as "int" or "float".
	Type string
}

// Arity returns the number of attributes.
func (s Schema) Arity() int { return len(s.Fields) }

// Concat returns the schema of a join output: s's fields followed by
// o's, with the combined name "s⋈o".
func (s Schema) Concat(o Schema) Schema {
	fields := make([]Field, 0, len(s.Fields)+len(o.Fields))
	fields = append(fields, s.Fields...)
	fields = append(fields, o.Fields...)
	return Schema{Name: s.Name + "⋈" + o.Name, Fields: fields}
}

// ElementSize estimates the in-memory size of one element of this
// schema in bytes. The estimate is 16 bytes of header plus 16 bytes per
// attribute (interface value). It backs the memory-usage metadata.
func (s Schema) ElementSize() int64 {
	return 16 + 16*int64(len(s.Fields))
}
