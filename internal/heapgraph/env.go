package heapgraph

import (
	"slices"

	"repro/internal/sexpr"
)

// maxLayers bounds the chain of shared layers under a frame. When
// sealing a frame's private writes would make the chain longer, the chain
// is flattened into a single layer instead, so a lookup probes at most
// maxLayers+1 maps and the flattening cost is spread over maxLayers forks.
const maxLayers = 8

// tombstone is stored in place of a label to record that a name inherited
// from a shared layer was unset on this path. Labels are never negative.
const tombstone Label = -1

// layer is an immutable set of bindings shared by every Env forked after
// it was sealed. parent is the older layer it shadows; depth counts the
// layers in the chain ending here.
type layer struct {
	vars   map[string]Label
	parent *layer
	depth  int
}

// lookup resolves a name through the chain, newest layer first.
func (ly *layer) lookup(name string) (Label, bool) {
	for ; ly != nil; ly = ly.parent {
		if l, ok := ly.vars[name]; ok {
			return visible(l)
		}
	}
	return Null, false
}

// visible maps a stored label to a lookup result, hiding tombstones.
func visible(l Label) (Label, bool) {
	if l == tombstone {
		return Null, false
	}
	return l, true
}

func (ly *layer) chainDepth() int {
	if ly == nil {
		return 0
	}
	return ly.depth
}

// frame is one variable scope. The bottom frame is the file-level (global)
// scope; each inlined function call pushes a frame.
//
// A frame's bindings are a small private map of the writes made since the
// path last forked, over a chain of immutable layers shared with the
// paths it forked from or into. Clone seals the private writes into a new
// layer that both sides reference; later writes on either side go to a
// fresh private map, and unsetting an inherited name writes a tombstone.
// Forking and the first write after it therefore cost O(scope depth),
// independent of how many variables are bound.
type frame struct {
	priv map[string]Label
	base *layer
	// globalImports records names aliased into this frame via PHP's
	// `global` statement; their final values are written back to the
	// global frame when the scope pops. The map may be shared with a
	// clone and is replaced, never mutated.
	globalImports map[string]bool
	// shared reports that the frame has not been written since the last
	// Clone (SharedFrames counts these).
	shared bool
}

func (f *frame) lookup(name string) (Label, bool) {
	if l, ok := f.priv[name]; ok {
		return visible(l)
	}
	return f.base.lookup(name)
}

func (f *frame) set(name string, l Label) {
	if f.priv == nil {
		f.priv = make(map[string]Label, 1)
	}
	f.priv[name] = l
}

func (f *frame) unset(name string) {
	if _, inherited := f.base.lookup(name); inherited {
		f.set(name, tombstone)
	} else {
		delete(f.priv, name)
	}
}

// seal moves the private writes into a new shared layer, flattening the
// chain once it would exceed maxLayers. Afterwards the frame has no
// private map, so neither side of a fork can write into the other's.
func (f *frame) seal() {
	f.shared = true
	if len(f.priv) == 0 {
		f.priv = nil
		return
	}
	if f.base.chainDepth() < maxLayers {
		f.base = &layer{vars: f.priv, parent: f.base, depth: f.base.chainDepth() + 1}
	} else {
		f.base = &layer{vars: f.bindings(), depth: 1}
	}
	f.priv = nil
}

// bindings returns a new map of the frame's visible bindings.
func (f *frame) bindings() map[string]Label {
	var chain []*layer
	for ly := f.base; ly != nil; ly = ly.parent {
		chain = append(chain, ly)
	}
	out := make(map[string]Label, len(f.priv))
	put := func(vars map[string]Label) {
		for name, l := range vars {
			if l == tombstone {
				delete(out, name)
			} else {
				out[name] = l
			}
		}
	}
	for i := len(chain) - 1; i >= 0; i-- {
		put(chain[i].vars)
	}
	put(f.priv)
	return out
}

// sameBindings reports whether two frames bind the same names to the same
// labels, ignoring the names for which skip returns true. Only names held
// above the frames' common layer are examined: a name held nowhere else
// resolves through that shared layer on both sides.
func sameBindings(a, b *frame, skip func(string) bool) bool {
	common := commonLayer(a.base, b.base)
	same := func(name string) bool {
		if skip(name) {
			return true
		}
		al, aok := a.lookup(name)
		bl, bok := b.lookup(name)
		return aok == bok && al == bl
	}
	for _, f := range [2]*frame{a, b} {
		for name := range f.priv {
			if !same(name) {
				return false
			}
		}
		for ly := f.base; ly != common; ly = ly.parent {
			for name := range ly.vars {
				if !same(name) {
					return false
				}
			}
		}
	}
	return true
}

// commonLayer returns the newest layer both chains contain, or nil.
func commonLayer(a, b *layer) *layer {
	for a != b {
		if a.chainDepth() >= b.chainDepth() {
			a = a.parent
		} else {
			b = b.parent
		}
	}
	return a
}

// Env is the environment of one execution path (the paper's
// Env = {Var, Map, cur}): a mapping from variable names to object labels
// plus the path's reachability constraint. On top of the paper's
// definition it carries the scope stack used for context-sensitive
// function-call inlining and the control-flow flags (return/break/
// continue) the interpreter needs.
type Env struct {
	frames []frame

	// Cur is the label of the path's reachability constraint object, or
	// Null when the path is unconditionally reachable.
	Cur Label
	// Returned holds the label of the value produced by an executed
	// `return`; Terminated marks paths that hit return/exit/throw and stop
	// executing subsequent statements in the current scope.
	Returned   Label
	Terminated bool
	// BreakN / ContinueN are pending loop-control levels (PHP's `break n`).
	// A non-zero value suspends statement execution until the enclosing
	// loop consumes it.
	BreakN    int
	ContinueN int
	// Tmp is the interpreter's per-path operand stack: partially evaluated
	// operand labels are parked here while a sibling operand evaluates, so
	// that label vectors stay aligned when the sibling's evaluation forks
	// the path (labels are cloned along with the environment).
	Tmp []Label
}

// NewEnv returns an environment with a single (global) scope, no bindings,
// and an empty reachability constraint.
func NewEnv() *Env {
	return &Env{frames: []frame{{}}}
}

func (e *Env) top() *frame { return &e.frames[len(e.frames)-1] }

// own returns frame i ready for mutation: it is no longer counted as
// shared by SharedFrames.
func (e *Env) own(i int) *frame {
	f := &e.frames[i]
	f.shared = false
	return f
}

// ownTop is own for the current scope.
func (e *Env) ownTop() *frame { return e.own(len(e.frames) - 1) }

// Suspended reports whether the path is currently not executing statements
// (terminated or unwinding a break/continue).
func (e *Env) Suspended() bool {
	return e.Terminated || e.BreakN > 0 || e.ContinueN > 0
}

// Get returns the label bound to the variable in the current scope, or
// Null (the paper's Get_Map).
func (e *Env) Get(name string) Label {
	l, _ := e.top().lookup(name)
	return l
}

// Has reports whether the variable is bound in the current scope.
func (e *Env) Has(name string) bool {
	_, ok := e.top().lookup(name)
	return ok
}

// Bind associates a variable with an object label in the current scope
// (the paper's Add_Var + Add_Map).
func (e *Env) Bind(name string, l Label) { e.ownTop().set(name, l) }

// Unbind removes a variable binding (PHP unset()).
func (e *Env) Unbind(name string) { e.ownTop().unset(name) }

// VarNames returns the bound variable names of the current scope, sorted.
func (e *Env) VarNames() []string {
	vars := e.top().bindings()
	out := make([]string, 0, len(vars))
	for v := range vars {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// PushScope enters a fresh variable scope for an inlined function call.
func (e *Env) PushScope() {
	e.frames = append(e.frames, frame{})
}

// PopScope leaves the current scope, writing back variables imported with
// `global`, and clears the return state so the caller's path continues.
func (e *Env) PopScope() {
	top := e.top()
	if len(e.frames) > 1 && top.globalImports != nil {
		g := e.own(0)
		for name := range top.globalImports {
			if l, ok := top.lookup(name); ok {
				g.set(name, l)
			}
		}
	}
	e.frames[len(e.frames)-1] = frame{} // release the popped frame's layers
	e.frames = e.frames[:len(e.frames)-1]
	e.Returned = Null
	e.Terminated = false
}

// Depth returns the scope depth (1 = global scope only).
func (e *Env) Depth() int { return len(e.frames) }

// ImportGlobal implements PHP's `global $name`: the current scope sees the
// global frame's binding (created as fresh if absent via mk), and writes it
// back on PopScope.
func (e *Env) ImportGlobal(name string, mk func() Label) {
	l, ok := e.frames[0].lookup(name)
	if !ok {
		l = mk()
		e.own(0).set(name, l)
	}
	top := e.ownTop()
	top.set(name, l)
	if !top.globalImports[name] {
		imports := make(map[string]bool, len(top.globalImports)+1)
		for k := range top.globalImports {
			imports[k] = true
		}
		imports[name] = true
		top.globalImports = imports
	}
}

// Clone forks the environment. Cloning is how the interpreter forks paths
// at conditionals; object labels are shared with the original, which is
// the memory-sharing design the paper credits for the small per-path
// object counts.
//
// Each scope frame's private writes are sealed into an immutable layer
// that both sides then share, and both sides start new private maps on
// their next write. The path condition (Cur) is a heap-graph label, so the
// condition prefix is a shared tail by construction. Forking, and the
// first write after it, is therefore O(scope depth), not O(bindings).
func (e *Env) Clone() *Env {
	n := &Env{
		frames:     make([]frame, len(e.frames)),
		Cur:        e.Cur,
		Returned:   e.Returned,
		Terminated: e.Terminated,
		BreakN:     e.BreakN,
		ContinueN:  e.ContinueN,
	}
	for i := range e.frames {
		e.frames[i].seal()
		n.frames[i] = e.frames[i]
	}
	if len(e.Tmp) > 0 {
		n.Tmp = append([]Label(nil), e.Tmp...)
	}
	return n
}

// SharedFrames returns the number of scope frames not written since the
// last fork, whose bindings therefore all live in layers shared with at
// least one other Env. The interpreter samples it at fork sites to report
// how much structure forking shared instead of copied.
func (e *Env) SharedFrames() int {
	n := 0
	for i := range e.frames {
		if e.frames[i].shared {
			n++
		}
	}
	return n
}

// PushTmp parks a label on the operand stack.
func (e *Env) PushTmp(l Label) { e.Tmp = append(e.Tmp, l) }

// PopTmp removes and returns the most recently parked label.
func (e *Env) PopTmp() Label {
	if len(e.Tmp) == 0 {
		return Null
	}
	l := e.Tmp[len(e.Tmp)-1]
	e.Tmp = e.Tmp[:len(e.Tmp)-1]
	return l
}

// ER extends the path's reachability constraint with the condition object l
// (the paper's ER, "Extend_Reachability"): cur becomes cur AND l, building
// the AND operation node in the heap graph. A Null l leaves cur unchanged.
func (e *Env) ER(g *Graph, l Label, line int) {
	if l == Null {
		return
	}
	if e.Cur == Null {
		e.Cur = l
		return
	}
	u := g.NewOp("And", sexpr.Bool, line)
	g.AddEdge(u, e.Cur)
	g.AddEdge(u, l)
	e.Cur = u
}

// EquivalentModulo reports whether two environments are observably
// identical except for the top-frame variables named in ignore: same
// scope depth, same control-flow state, same operand stack, the same
// bindings in every frame (top-frame names in ignore excluded on both
// sides), and the same global imports. The path-merging machinery uses
// it with a function's dead-variable set to detect paths that differ
// only in values no later statement can observe. The path condition
// (Cur) is deliberately NOT compared — the caller reasons about it
// separately.
func (e *Env) EquivalentModulo(o *Env, ignore map[string]bool) bool {
	if len(e.frames) != len(o.frames) ||
		e.Returned != o.Returned || e.Terminated != o.Terminated ||
		e.BreakN != o.BreakN || e.ContinueN != o.ContinueN ||
		len(e.Tmp) != len(o.Tmp) {
		return false
	}
	for i := range e.Tmp {
		if e.Tmp[i] != o.Tmp[i] {
			return false
		}
	}
	top := len(e.frames) - 1
	for i := range e.frames {
		ef, of := &e.frames[i], &o.frames[i]
		skip := func(name string) bool { return i == top && ignore[name] }
		if !sameBindings(ef, of, skip) {
			return false
		}
		if len(ef.globalImports) != len(of.globalImports) {
			return false
		}
		for name := range ef.globalImports {
			if !of.globalImports[name] {
				return false
			}
		}
	}
	return true
}

// EnvSet is the paper's ℰ: the environments of all live execution paths.
type EnvSet []*Env

// CloneAll deep-copies every environment.
func (s EnvSet) CloneAll() EnvSet {
	out := make(EnvSet, len(s))
	for i, e := range s {
		out[i] = e.Clone()
	}
	return out
}

// Live returns the environments that are executing statements (not
// terminated or unwinding loop control).
func (s EnvSet) Live() EnvSet {
	out := make(EnvSet, 0, len(s))
	for _, e := range s {
		if !e.Suspended() {
			out = append(out, e)
		}
	}
	return out
}
