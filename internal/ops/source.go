package ops

import (
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stream"
)

// Source is a raw data stream entering the query graph. The engine
// drives it from a stream.Generator; Emit is the instrumented exit
// point. A source may additionally declare its expected rate, which
// seeds the cost model before measurements are available.
type Source struct {
	*common
	declaredRate float64
}

// NewSource creates a source node with the given output schema.
// declaredRate is the expected element rate (elements per time unit);
// pass 0 if unknown.
func NewSource(g *graph.Graph, name string, schema stream.Schema, declaredRate float64, statWindow clock.Duration) *Source {
	s := &Source{
		common:       newCommon(g, name, graph.SourceNode, schema, statWindow),
		declaredRate: declaredRate,
	}
	defineStaticImplType(s.Registry(), "source")
	s.Registry().MustDefine(&core.Definition{
		Kind: KindDeclaredRate,
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewStatic(s.declaredRate), nil
		},
	})
	g.Register(s)
	return s
}

// Emit instruments and returns one outgoing element; the engine
// forwards it to the source's consumers.
func (s *Source) Emit(el stream.Element) stream.Element {
	s.recordIn()
	s.recordOut(1)
	return el
}

// KindDeclaredRate is the statically declared expected output rate of
// a source.
const KindDeclaredRate = core.Kind("declaredRate")
