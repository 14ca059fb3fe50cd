package heapgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sexpr"
)

// These tests pin the layered frame representation: Clone seals private
// writes into shared immutable layers, unset over an inherited binding is
// a tombstone, and a frame's layer chain stays within maxLayers.

func TestUnsetInheritedThenRebind(t *testing.T) {
	g := New()
	e := NewEnv()
	x1 := g.NewConcrete(sexpr.IntVal(1), 1)
	x2 := g.NewConcrete(sexpr.IntVal(2), 2)
	e.Bind("x", x1)
	e.Bind("y", x1)

	c := e.Clone() // x and y now live in a shared layer
	c.Unbind("x")
	if c.Has("x") || c.Get("x") != Null {
		t.Fatal("unset of an inherited name still visible")
	}
	if !e.Has("x") || e.Get("x") != x1 {
		t.Fatal("unset on the clone reached the shared layer")
	}
	if got := c.VarNames(); !slices.Equal(got, []string{"y"}) {
		t.Fatalf("VarNames after unset = %v, want [y]", got)
	}

	// The tombstone is itself sealed by the next fork and must hide the
	// name from the grandchild too.
	gc := c.Clone()
	if gc.Has("x") {
		t.Fatal("sealed tombstone lost: grandchild sees x")
	}
	gc.Bind("x", x2)
	if gc.Get("x") != x2 || c.Has("x") || e.Get("x") != x1 {
		t.Fatalf("rebind after unset: gc=%v c.Has=%v e=%v", gc.Get("x"), c.Has("x"), e.Get("x"))
	}
	if got := gc.VarNames(); !slices.Equal(got, []string{"x", "y"}) {
		t.Fatalf("VarNames after rebind = %v, want [x y]", got)
	}

	// Unsetting a name bound only privately leaves no tombstone behind.
	gc.Bind("z", x2)
	gc.Unbind("z")
	if _, ok := gc.top().priv["z"]; ok {
		t.Fatal("unset of a private-only name left an entry in the private map")
	}
	// Unsetting a name nobody binds is a no-op.
	gc.Unbind("never")
	if gc.Has("never") {
		t.Fatal("unset of an unbound name created a binding")
	}
}

func TestGlobalWritebackThroughLayers(t *testing.T) {
	g := New()
	e := NewEnv()
	dir := g.NewConcrete(sexpr.StrVal("/uploads"), 1)
	e.Bind("dir", dir)
	// Push the global binding down a few layers.
	for i := 0; i < 3; i++ {
		e = e.Clone()
		e.Bind(fmt.Sprintf("g%d", i), dir)
	}
	e.PushScope()
	e.ImportGlobal("dir", func() Label { t.Fatal("global dir exists in a layer"); return Null })
	if e.Get("dir") != dir {
		t.Fatal("global import did not resolve through the global frame's layers")
	}

	// Fork inside the function; one side imports a second global, which
	// must not show up in the sibling's import set.
	c := e.Clone()
	fresh := g.NewSymbol("s_global_wpdb", sexpr.Unknown, 2)
	c.ImportGlobal("wpdb", func() Label { return fresh })
	eVal := g.NewConcrete(sexpr.StrVal("/tmp/e"), 3)
	cVal := g.NewConcrete(sexpr.StrVal("/tmp/c"), 4)
	e.Bind("dir", eVal)
	c.Bind("dir", cVal)
	e.PopScope()
	c.PopScope()
	if e.Get("dir") != eVal || c.Get("dir") != cVal {
		t.Fatalf("write-back: e=%v (want %v) c=%v (want %v)", e.Get("dir"), eVal, c.Get("dir"), cVal)
	}
	if e.Has("wpdb") {
		t.Fatal("sibling's global import leaked into the original")
	}
	if c.Get("wpdb") != fresh {
		t.Fatal("fresh global not written back on the importing path")
	}
	for i := 0; i < 3; i++ {
		if n := fmt.Sprintf("g%d", i); e.Get(n) != dir || c.Get(n) != dir {
			t.Fatalf("global %s lost after write-back", n)
		}
	}
}

func TestLayerChainBounded(t *testing.T) {
	g := New()
	e := NewEnv()
	want := map[string]Label{}
	for i := 0; i < 200; i++ {
		l := g.NewConcrete(sexpr.IntVal(int64(i)), i+1)
		name := fmt.Sprintf("v%d", i%37)
		if i%5 == 4 {
			e.Unbind(name)
			delete(want, name)
		} else {
			e.Bind(name, l)
			want[name] = l
		}
		e = e.Clone()
		if d := e.top().base.chainDepth(); d > maxLayers {
			t.Fatalf("fork %d: chain depth %d exceeds %d", i, d, maxLayers)
		}
		n := 0
		for ly := e.top().base; ly != nil; ly = ly.parent {
			n++
		}
		if n > maxLayers {
			t.Fatalf("fork %d: %d layers reachable, bound is %d", i, n, maxLayers)
		}
	}
	for name, l := range want {
		if e.Get(name) != l {
			t.Fatalf("%s = %v, want %v", name, e.Get(name), l)
		}
	}
	if got := len(e.VarNames()); got != len(want) {
		t.Fatalf("%d names visible, want %d", got, len(want))
	}
}

func TestDenseLabels(t *testing.T) {
	g := New()
	if g.Find(Null) != nil || g.Find(1) != nil || g.Edges(1) != nil || g.NumObjects() != 0 {
		t.Fatal("empty graph reports objects")
	}
	// Cross several chunk boundaries.
	const n = 3<<chunkBits + 5
	var last Label
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			last = g.NewArray(i)
		} else {
			last = g.NewOp("Concat", sexpr.String, i)
			g.AddEdge(last, last-1)
		}
		if g.NumObjects() != i+1 {
			t.Fatalf("NumObjects = %d after %d allocations", g.NumObjects(), i+1)
		}
	}
	if last != Label(n) || g.LastLabel() != last {
		t.Fatalf("last label %d, LastLabel %d, want %d", last, g.LastLabel(), n)
	}
	for l := Label(1); l <= last; l++ {
		o := g.Find(l)
		if o == nil || o.Label != l || o.Line != int(l)-1 {
			t.Fatalf("Find(%d) = %+v", l, o)
		}
		isArray := (l-1)%3 == 0
		if (g.Array(l) != nil) != isArray {
			t.Fatalf("Array(%d) presence = %v, want %v", l, g.Array(l) != nil, isArray)
		}
		if !isArray && !slices.Equal(g.Edges(l), []Label{l - 1}) {
			t.Fatalf("Edges(%d) = %v", l, g.Edges(l))
		}
	}
	// A pointer from Find stays valid as the graph grows.
	first := g.Find(1)
	for i := 0; i < 1<<chunkBits; i++ {
		g.NewConcrete(sexpr.IntVal(int64(i)), 0)
	}
	if g.Find(1) != first {
		t.Fatal("growth moved an existing node")
	}
	for _, l := range []Label{Null, -1, g.LastLabel() + 1, g.LastLabel() + 1<<chunkBits} {
		if g.Find(l) != nil || g.Edges(l) != nil || g.Array(l) != nil {
			t.Fatalf("label %d outside the graph resolves", l)
		}
		if _, ok := g.Elem(l, "0"); ok {
			t.Fatalf("Elem on label %d outside the graph succeeded", l)
		}
	}
}

// refFrame and refEnv are the naive reference model for the differential
// test: every Clone deep-copies every frame.
type refFrame struct {
	vars    map[string]Label
	imports map[string]bool
}

type refEnv []refFrame

func (r refEnv) clone() refEnv {
	out := make(refEnv, len(r))
	for i, f := range r {
		out[i] = refFrame{vars: map[string]Label{}, imports: map[string]bool{}}
		for k, v := range f.vars {
			out[i].vars[k] = v
		}
		for k := range f.imports {
			out[i].imports[k] = true
		}
	}
	return out
}

func (r refEnv) top() refFrame { return r[len(r)-1] }

func (r refEnv) equivalentModulo(o refEnv, ignore map[string]bool) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		skip := func(name string) bool { return i == len(r)-1 && ignore[name] }
		for _, pair := range [2][2]refFrame{{r[i], o[i]}, {o[i], r[i]}} {
			for name, l := range pair[0].vars {
				if ol, ok := pair[1].vars[name]; !skip(name) && (!ok || ol != l) {
					return false
				}
			}
			for name := range pair[0].imports {
				if !pair[1].imports[name] {
					return false
				}
			}
		}
	}
	return true
}

// TestEnvDifferential runs seeded random sequences of Bind, Unbind,
// Clone, PushScope, PopScope and ImportGlobal on the layered Env and on
// the deep-copy reference model, and after every step compares every
// observable across all live clones.
func TestEnvDifferential(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	const (
		seeds    = 200
		steps    = 300
		maxLive  = 6
		maxDepth = 4
	)
	equivalent := 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		envs := []*Env{NewEnv()}
		refs := []refEnv{{{vars: map[string]Label{}, imports: map[string]bool{}}}}
		for step := 0; step < steps; step++ {
			i := rng.Intn(len(envs))
			e, r := envs[i], refs[i]
			name := names[rng.Intn(len(names))]
			l := Label(1 + rng.Intn(4))
			var op string
			switch k := rng.Intn(20); {
			case k < 7:
				op = "bind"
				e.Bind(name, l)
				r.top().vars[name] = l
			case k < 10:
				op = "unbind"
				e.Unbind(name)
				delete(r.top().vars, name)
			case k < 15:
				op = "clone"
				if len(envs) == maxLive {
					j := rng.Intn(len(envs))
					envs = slices.Delete(envs, j, j+1)
					refs = slices.Delete(refs, j, j+1)
				}
				envs = append(envs, e.Clone())
				refs = append(refs, r.clone())
			case k < 17:
				op = "push"
				if e.Depth() < maxDepth {
					e.PushScope()
					refs[i] = append(r, refFrame{vars: map[string]Label{}, imports: map[string]bool{}})
				}
			case k < 19:
				op = "pop"
				if e.Depth() > 1 {
					e.PopScope()
					top := r.top()
					for n := range top.imports {
						if v, ok := top.vars[n]; ok {
							r[0].vars[n] = v
						}
					}
					refs[i] = r[:len(r)-1]
				}
			default:
				op = "global"
				e.ImportGlobal(name, func() Label { return l })
				v, ok := r[0].vars[name]
				if !ok {
					v = l
					r[0].vars[name] = v
				}
				r.top().vars[name] = v
				r.top().imports[name] = true
			}

			where := func() string { return fmt.Sprintf("seed %d step %d (%s on env %d)", seed, step, op, i) }
			for j, e := range envs {
				r := refs[j]
				if e.Depth() != len(r) {
					t.Fatalf("%s: env %d Depth %d, want %d", where(), j, e.Depth(), len(r))
				}
				var want []string
				for _, n := range names {
					rl, rok := r.top().vars[n]
					if e.Get(n) != rl || e.Has(n) != rok {
						t.Fatalf("%s: env %d %s: Get %v Has %v, want %v %v", where(), j, n, e.Get(n), e.Has(n), rl, rok)
					}
					if rok {
						want = append(want, n)
					}
				}
				if got := e.VarNames(); !slices.Equal(got, want) {
					t.Fatalf("%s: env %d VarNames %v, want %v", where(), j, got, want)
				}
			}
			ignore := map[string]bool{names[rng.Intn(len(names))]: true}
			for j := range envs {
				for k := range envs {
					got := envs[j].EquivalentModulo(envs[k], ignore)
					if want := refs[j].equivalentModulo(refs[k], ignore); got != want {
						t.Fatalf("%s: EquivalentModulo(%d, %d) = %v, want %v", where(), j, k, got, want)
					}
					if got && j != k {
						equivalent++
					}
				}
			}
		}
	}
	// The comparison is only meaningful if equivalence is often true.
	if equivalent < seeds*steps {
		t.Fatalf("only %d equivalent pairs seen; the generator no longer exercises EquivalentModulo", equivalent)
	}
}
