package heapgraph

import (
	"fmt"
	"testing"

	"repro/internal/sexpr"
)

// deepCloneEnv is the eager clone that layered frames replaced: every
// frame's bindings are copied into a fresh private map. Kept here as the
// benchmark baseline.
func deepCloneEnv(e *Env) *Env {
	n := &Env{
		frames:     make([]frame, len(e.frames)),
		Cur:        e.Cur,
		Returned:   e.Returned,
		Terminated: e.Terminated,
		BreakN:     e.BreakN,
		ContinueN:  e.ContinueN,
	}
	for i := range e.frames {
		n.frames[i] = frame{priv: e.frames[i].bindings(), globalImports: e.frames[i].globalImports}
	}
	if len(e.Tmp) > 0 {
		n.Tmp = append([]Label(nil), e.Tmp...)
	}
	return n
}

// benchEnv builds an environment with the given scope depth and bindings
// per frame — the shape of a deeply inlined call chain at a fork site.
func benchEnv(g *Graph, depth, bindings int) *Env {
	e := NewEnv()
	for d := 0; d < depth; d++ {
		for i := 0; i < bindings; i++ {
			e.Bind(fmt.Sprintf("v%d_%d", d, i), g.NewConcrete(sexpr.IntVal(int64(i)), d+1))
		}
		if d < depth-1 {
			e.PushScope()
		}
	}
	return e
}

// BenchmarkPathForkDeep measures symbolic forks: a clone plus one write on
// the forked path, the interpreter's pattern at every conditional.
// "deepcopy" is the eager whole-frame copy; "layered" the shared-layer
// clone. The d*_b* shapes fork a deep, well-populated scope stack once per
// op. The wide shape is a large file-level script: one frame of 96
// bindings forked 15 times in a row, each fork followed by one write, so
// the layer chain grows and is compacted inside every op.
func BenchmarkPathForkDeep(b *testing.B) {
	for _, shape := range []struct {
		name                   string
		depth, bindings, forks int
	}{
		{"d4_b16", 4, 16, 1},
		{"d16_b32", 16, 32, 1},
		{"d32_b64", 32, 64, 1},
		{"wide_b96_f15", 1, 96, 15},
	} {
		g := New()
		l := g.NewConcrete(sexpr.IntVal(42), 1)
		for _, impl := range []struct {
			name  string
			clone func(*Env) *Env
		}{
			{"deepcopy", deepCloneEnv},
			{"layered", (*Env).Clone},
		} {
			b.Run(impl.name+"/"+shape.name, func(b *testing.B) {
				b.ReportAllocs()
				e := benchEnv(g, shape.depth, shape.bindings)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := e
					for f := 0; f < shape.forks; f++ {
						c = impl.clone(c)
						c.Bind("forked", l)
					}
				}
			})
		}
	}
}
