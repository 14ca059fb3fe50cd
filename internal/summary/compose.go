package summary

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/sexpr"
	"repro/internal/smt"
)

// The composition layer: resolve each function's call-site atoms to
// concrete formal masks using its callees' summaries. Functions are
// processed bottom-up over the strongly connected components of the
// (AST-level) call graph — Tarjan emits SCCs callees-first — so a
// callee's summary is final before any caller reads it. Inside a
// cyclic SCC the members' summaries are iterated to a fixpoint; if the
// fixpoint does not settle within widenBound rounds, taint is widened
// to "all formals" and the member is marked Widened.
//
// Note: internal/callgraph's graph is acyclic by construction (it
// models the locality analysis, which cuts recursion), so composition
// builds its own name-level graph here.

const (
	// widenBound caps SCC fixpoint rounds before widening.
	widenBound = 8
	// maxSinkEffects caps a summary's propagated sink list.
	maxSinkEffects = 64
	// maxTermSize caps a composed return term's node count.
	maxTermSize = 256
)

// Compose resolves a set of per-file local layers into engine-facing
// summaries. File order decides duplicate-name resolution
// (first declaration wins), matching the interpreter.
func Compose(locals []*FileLocal, fac *smt.Factory) *Set {
	total := 0
	for _, fl := range locals {
		if fl != nil {
			total += len(fl.Funcs)
		}
	}
	c := &composer{fac: fac, ids: make(map[string]int, total), fns: make([]*FuncLocal, 0, total)}
	for _, fl := range locals {
		if fl == nil {
			continue
		}
		for _, fn := range fl.Funcs {
			if _, ok := c.ids[fn.Name]; !ok {
				c.ids[fn.Name] = len(c.fns)
				c.fns = append(c.fns, fn)
			}
		}
	}
	c.link()
	c.sums = make([]*Summary, len(c.fns))
	c.composeSCCs()
	set := &Set{Funcs: make(map[string]*Summary, len(c.fns))}
	for v, fn := range c.fns {
		set.Funcs[fn.Name] = c.sums[v]
	}
	return set
}

// composer holds the name-level call graph over the chosen functions,
// numbered in first-declaration order, and their summaries as they are
// resolved.
type composer struct {
	fac *smt.Factory
	ids map[string]int // function name -> number
	fns []*FuncLocal
	// callees holds, for every function's call sites in order, the
	// callee's number or -1 for a built-in or undeclared callee;
	// function v's sites are callees[siteAt[v]:siteAt[v+1]].
	callees []int
	siteAt  []int
	sums    []*Summary // by function number; nil until resolved
}

func (c *composer) link() {
	c.siteAt = make([]int, len(c.fns)+1)
	for v, fn := range c.fns {
		c.siteAt[v+1] = c.siteAt[v] + len(fn.Sites)
	}
	c.callees = make([]int, 0, c.siteAt[len(c.fns)])
	for _, fn := range c.fns {
		for _, s := range fn.Sites {
			c.callees = append(c.callees, c.id(s.Callee))
		}
	}
}

// id returns a function's number, or -1 if it is not a graph node.
func (c *composer) id(name string) int {
	if v, ok := c.ids[name]; ok {
		return v
	}
	return -1
}

func (c *composer) sites(v int) []int { return c.callees[c.siteAt[v]:c.siteAt[v+1]] }

// composeSCCs runs Tarjan over the call graph and composes each
// strongly connected component as it is found, which is in reverse
// topological order (callees before callers).
func (c *composer) composeSCCs() {
	const unvisited = -1
	n := len(c.fns)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int
	next := 0

	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range c.sites(v) {
			switch {
			case w < 0:
				// built-in or undeclared: not a graph node
			case index[w] == unvisited:
				strongconnect(w)
				low[v] = min(low[v], low[w])
			case onStack[w]:
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			i := len(stack) - 1
			for stack[i] != v {
				i--
			}
			comp := stack[i:]
			for _, w := range comp {
				onStack[w] = false
			}
			c.composeSCC(comp)
			stack = stack[:i]
		}
	}
	for v := range c.fns {
		if index[v] == unvisited {
			strongconnect(v)
		}
	}
}

// composeSCC resolves one component, iterating cyclic components to a
// fixpoint with widening.
func (c *composer) composeSCC(comp []int) {
	recursive := len(comp) > 1 || slices.Contains(c.sites(comp[0]), comp[0])
	// deterministic member iteration inside the fixpoint
	slices.SortFunc(comp, func(a, b int) int { return strings.Compare(c.fns[a].Name, c.fns[b].Name) })

	// Seed the table so in-component lookups see a (partial) summary.
	for _, v := range comp {
		c.sums[v] = c.resolveOne(v, recursive)
	}
	if !recursive {
		return
	}
	widened := false
	for round := 0; ; round++ {
		changed := false
		for _, v := range comp {
			next := c.resolveOne(v, true)
			if !summariesEqual(c.sums[v], next) {
				changed = true
			}
			c.sums[v] = next
		}
		if !changed {
			break
		}
		if round >= widenBound {
			widened = true
			break
		}
	}
	if widened {
		for _, v := range comp {
			s := c.sums[v]
			s.Widened = true
			s.ReturnTaint = allFormals(s.Params)
			// Widened sink masks are over-approximated the same way.
			for i := range s.Sinks {
				s.Sinks[i].SrcFormals = allFormals(s.Params)
				s.Sinks[i].DstFormals = allFormals(s.Params)
			}
		}
	}
}

func allFormals(params int) uint64 {
	if params <= 0 {
		return 0
	}
	if params >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(params)) - 1
}

// resolveOne computes a summary for function v against the summaries
// resolved so far.
func (c *composer) resolveOne(v int, recursive bool) *Summary {
	fn, callees := c.fns[v], c.sites(v)
	s := &Summary{
		Name:           fn.Name,
		File:           fn.File,
		Line:           fn.Line,
		Params:         fn.Params,
		Escapes:        fn.Escapes,
		EscapeReason:   fn.EscapeReason,
		Recursive:      recursive,
		Forks:          fn.Forks,
		ReturnLine:     fn.RetLine,
		ReturnFormal:   fn.RetFormal,
		TouchesFiles:   fn.TouchesFiles,
		TouchesGlobals: fn.TouchesGlobals,
		DeadVars:       fn.DeadVars,
		MergeVars:      fn.MergeVars,
	}
	s.ReturnConst = constOf(fn)

	// Per-site return-taint masks, iterated because a site's arguments
	// may reference other sites.
	masks := make([]uint64, len(fn.Sites))
	resolve := func(a AtomSet) uint64 {
		m := a.Formals
		for _, i := range a.Sites {
			m |= masks[i]
		}
		return m
	}
	for sweep := 0; sweep < len(fn.Sites)+1 || sweep == 0; sweep++ {
		changed := false
		for j, site := range fn.Sites {
			var m uint64
			callee := c.summary(callees[j])
			switch {
			case callee == nil:
				// Built-in or undeclared: conservatively, the result
				// may depend on every argument.
				for _, a := range site.Args {
					m |= resolve(a)
				}
			case callee.Escapes:
				s.CallsEscaped = true
				for _, a := range site.Args {
					m |= resolve(a)
				}
			default:
				for i := 0; i < callee.Params && i < 64; i++ {
					if callee.ReturnTaint&(1<<uint(i)) != 0 && i < len(site.Args) {
						m |= resolve(site.Args[i])
					}
				}
				s.Forks = s.Forks || callee.Forks
				s.CallsEscaped = s.CallsEscaped || callee.CallsEscaped
				s.TouchesFiles = s.TouchesFiles || callee.TouchesFiles
				s.TouchesGlobals = s.TouchesGlobals || callee.TouchesGlobals
			}
			if m != masks[j] {
				masks[j] = m
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	s.ReturnTaint = resolve(fn.Return)

	// Sink effects: direct calls plus effects inherited from known
	// callees, with formal masks translated through the call
	// arguments. Effects merge by (sink, line).
	addSink := func(e SinkEffect) {
		for i := range s.Sinks {
			if s.Sinks[i].Sink == e.Sink && s.Sinks[i].Line == e.Line {
				s.Sinks[i].SrcFormals |= e.SrcFormals
				s.Sinks[i].DstFormals |= e.DstFormals
				return
			}
		}
		if len(s.Sinks) >= maxSinkEffects {
			s.Widened = true
			return
		}
		s.Sinks = append(s.Sinks, e)
	}
	for _, sk := range fn.Sinks {
		addSink(SinkEffect{Sink: sk.Sink, Line: sk.Line, SrcFormals: resolve(sk.Src), DstFormals: resolve(sk.Dst)})
	}
	for j, site := range fn.Sites {
		callee := c.summary(callees[j])
		if callee == nil || callee.Escapes {
			continue
		}
		remap := func(mask uint64) uint64 {
			var m uint64
			for i := 0; i < 64 && i < len(site.Args); i++ {
				if mask&(1<<uint(i)) != 0 {
					m |= resolve(site.Args[i])
				}
			}
			return m
		}
		for _, e := range callee.Sinks {
			addSink(SinkEffect{Sink: e.Sink, Line: e.Line, SrcFormals: remap(e.SrcFormals), DstFormals: remap(e.DstFormals)})
		}
	}
	// (sink, line) keys are unique after merging, so the order is total.
	slices.SortFunc(s.Sinks, func(a, b SinkEffect) int {
		if a.Line != b.Line {
			return a.Line - b.Line
		}
		return strings.Compare(a.Sink, b.Sink)
	})

	// Return term: either the local call-free term, or a single-call
	// body composed by substituting the argument terms into the
	// callee's term.
	if fn.RetTerm != nil {
		s.ReturnTerm = fn.RetTerm.toSMT(c.fac)
	} else if fn.RetCall != nil {
		callee := c.summary(c.id(fn.RetCall.Callee))
		if callee != nil && !callee.Escapes && !callee.Recursive && callee.ReturnTerm != nil {
			args := make([]*smt.Term, len(fn.RetCall.Args))
			ok := true
			for i, a := range fn.RetCall.Args {
				args[i] = a.toSMT(c.fac)
				if args[i] == nil {
					ok = false
					break
				}
			}
			if ok {
				rt := c.fac.Substitute(callee.ReturnTerm, args)
				if c.fac.Size(rt) > maxTermSize {
					s.Widened = true
				} else {
					s.ReturnTerm = rt
				}
			}
		}
	}
	if recursive {
		// A recursive return term would need a fixpoint over terms;
		// taint widening covers the information instead.
		s.ReturnTerm = nil
	}
	return s
}

// summary returns function v's summary so far: nil for a built-in or
// undeclared callee (v < 0) and for a function not yet resolved.
func (c *composer) summary(v int) *Summary {
	if v < 0 {
		return nil
	}
	return c.sums[v]
}

func constOf(fn *FuncLocal) sexpr.Expr {
	switch fn.RetConstKind {
	case "str":
		return sexpr.StrVal(fn.RetConstStr)
	case "int":
		return sexpr.IntVal(fn.RetConstInt)
	case "float":
		return sexpr.FloatVal(fn.RetConstF)
	case "bool":
		return sexpr.BoolVal(fn.RetConstBool)
	case "null":
		return sexpr.NullVal{}
	}
	return nil
}

// summariesEqual compares the fixpoint-relevant fields.
func summariesEqual(a, b *Summary) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.ReturnTaint != b.ReturnTaint || a.CallsEscaped != b.CallsEscaped ||
		a.Forks != b.Forks || a.TouchesFiles != b.TouchesFiles ||
		a.TouchesGlobals != b.TouchesGlobals || len(a.Sinks) != len(b.Sinks) {
		return false
	}
	for i := range a.Sinks {
		if a.Sinks[i] != b.Sinks[i] {
			return false
		}
	}
	return true
}

// String renders a compact human-readable summary (for -trace output
// and test failure messages).
func (s *Summary) String() string {
	if s.Escapes {
		return fmt.Sprintf("%s: escapes (%s)", s.Name, s.EscapeReason)
	}
	out := fmt.Sprintf("%s: taint=%#x", s.Name, s.ReturnTaint)
	if s.ReturnTerm != nil {
		out += " ret=" + s.ReturnTerm.String()
	}
	if len(s.Sinks) > 0 {
		out += fmt.Sprintf(" sinks=%d", len(s.Sinks))
	}
	if s.Recursive {
		out += " recursive"
	}
	if s.Widened {
		out += " widened"
	}
	return out
}
