package summary

import (
	"sort"

	"repro/internal/callgraph"
	"repro/internal/phpast"
)

// The local layer: a pure syntactic analysis of one file's function
// declarations. Everything here is a function of the file's content
// alone (no other files, no options), which is what makes the result
// cacheable as a per-file artifact.
//
// Taint is tracked as AtomSets: a set of formal-parameter bits plus a
// set of call-site indices whose return values flow in. Call sites
// keep their own argument AtomSets, so the composition layer can
// resolve everything to formal masks once callee summaries exist.

// AtomSet is a taint value: which formals and which call results may
// flow into a variable or expression. Sites is sorted and deduplicated.
type AtomSet struct {
	Formals uint64 `json:"f,omitempty"`
	Sites   []int  `json:"s,omitempty"`
}

func (a AtomSet) union(b AtomSet) AtomSet {
	return AtomSet{Formals: a.Formals | b.Formals, Sites: mergeSorted(a.Sites, b.Sites)}
}

func (a AtomSet) equal(b AtomSet) bool {
	if a.Formals != b.Formals || len(a.Sites) != len(b.Sites) {
		return false
	}
	for i := range a.Sites {
		if a.Sites[i] != b.Sites[i] {
			return false
		}
	}
	return true
}

func (a AtomSet) empty() bool { return a.Formals == 0 && len(a.Sites) == 0 }

// mergeSorted returns the sorted union of a and b. Site lists are never
// written after construction, so an input that already holds the union
// is returned as is.
func mergeSorted(a, b []int) []int {
	switch {
	case len(b) == 0 || subsetSorted(b, a):
		return a
	case len(a) == 0 || subsetSorted(a, b):
		return b
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// subsetSorted reports whether every element of sorted a is in sorted b.
func subsetSorted(a, b []int) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// Site is one resolvable call site inside a function body: a call to a
// statically named function, with the taint atoms of each argument.
type Site struct {
	Callee string    `json:"c"`
	Line   int       `json:"l"`
	Args   []AtomSet `json:"a,omitempty"`
}

// SinkLocal is a direct sink call inside the body, with unresolved
// source/destination taint.
type SinkLocal struct {
	Sink string  `json:"k"`
	Line int     `json:"l"`
	Src  AtomSet `json:"src"`
	Dst  AtomSet `json:"dst"`
}

// RetCallLocal describes a `return g(args...)` body where every
// argument is itself in the term vocabulary: the composition layer
// instantiates g's return term with the argument terms via
// smt.Factory.Substitute.
type RetCallLocal struct {
	Callee string      `json:"c"`
	Args   []*TermNode `json:"a,omitempty"`
}

// FuncLocal is the serializable local layer for one function.
type FuncLocal struct {
	Name   string `json:"name"`
	File   string `json:"file"`
	Line   int    `json:"line"`
	Params int    `json:"params"`

	Escapes      bool   `json:"escapes,omitempty"`
	EscapeReason string `json:"escapeReason,omitempty"`
	Forks        bool   `json:"forks,omitempty"`

	Sites []Site      `json:"sites,omitempty"`
	Sinks []SinkLocal `json:"sinks,omitempty"`

	Return  AtomSet       `json:"ret"`
	RetTerm *TermNode     `json:"retTerm,omitempty"`
	RetCall *RetCallLocal `json:"retCall,omitempty"`
	RetLine int           `json:"retLine,omitempty"`

	// Trivial-body classification (see Summary.Trivial): the body is
	// {Nop|InlineHTML|FuncDecl|ClassDecl}* followed by exactly one
	// return of a never-assigned formal or a scalar literal.
	RetFormal    int     `json:"retFormal"`
	RetConstKind string  `json:"retConstKind,omitempty"` // "str","int","float","bool","null"
	RetConstStr  string  `json:"retConstStr,omitempty"`
	RetConstInt  int64   `json:"retConstInt,omitempty"`
	RetConstF    float64 `json:"retConstF,omitempty"`
	RetConstBool bool    `json:"retConstBool,omitempty"`

	TouchesFiles   bool `json:"touchesFiles,omitempty"`
	TouchesGlobals bool `json:"touchesGlobals,omitempty"`

	DeadVars  []string `json:"deadVars,omitempty"`
	MergeVars []string `json:"mergeVars,omitempty"`
}

// FileLocal is the per-file artifact payload: the local layer of every
// function declared in one file, in declaration order.
type FileLocal struct {
	Version int          `json:"version"`
	File    string       `json:"file"`
	Funcs   []*FuncLocal `json:"funcs,omitempty"`
}

// LocalFile computes the local layer for one parsed file. Function
// name registration mirrors the interpreter's declare(): FuncDecls
// under their lowercase name, class methods under both the qualified
// "class::method" and the bare method name, first declaration wins
// (collisions are resolved by Compose across files). A method body is
// scanned once; the bare-name entry is a copy that differs only in
// Name.
func LocalFile(f *phpast.File) *FileLocal {
	fl := &FileLocal{Version: ArtifactVersion, File: f.Name}
	sc := &localScan{index: map[string]int{}}
	for _, s := range f.Stmts {
		phpast.Walk(s, func(n phpast.Node) bool {
			switch d := n.(type) {
			case *phpast.FuncDecl:
				fl.Funcs = append(fl.Funcs, sc.function(lower(d.Name), f.Name, d.P.Line, d.Params, d.Body, false))
			case *phpast.ClassDecl:
				for _, m := range d.Methods {
					qual := sc.function(lower(d.Name+"::"+m.Name), f.Name, m.P.Line, m.Params, m.Body, true)
					bare := *qual
					bare.Name = lower(m.Name)
					fl.Funcs = append(fl.Funcs, qual, &bare)
				}
				return false // methods handled; don't re-walk as nested decls
			}
			return true
		})
	}
	return fl
}

// localScan carries the walker state for one function body. One
// scanner serves every function of a file: function resets it, so the
// name index is allocated once per file.
type localScan struct {
	fl *FuncLocal
	// index maps a variable name to its record in names.
	index map[string]int
	names []nameInfo
	// grew is set when a sweep inserts a variable's taint entry or
	// grows its AtomSet; a sweep that leaves it unset is the fixpoint.
	grew bool
}

// nameInfo is everything the scan knows about one variable name.
type nameInfo struct {
	param    int     // formal index, or -1
	assigned bool    // a formal that is an assignment target
	bound    bool    // has a taint entry (taint may still be empty)
	taint    AtomSet // flow-insensitive union of every assigned value
	// occurrence bookkeeping for DeadVars / MergeVars
	occs     int  // total occurrences
	deadOccs int  // occurrences that are plain-assign LHS
	condOccs int  // occurrences that are an entire if-cond/switch-subject
	declared bool // named in a global/static declaration or a param
}

// info returns name's record, creating it on first use. The pointer is
// valid until the next call creates a record.
func (sc *localScan) info(name string) *nameInfo {
	if i, ok := sc.index[name]; ok {
		return &sc.names[i]
	}
	sc.index[name] = len(sc.names)
	sc.names = append(sc.names, nameInfo{param: -1})
	return &sc.names[len(sc.names)-1]
}

// lookup returns name's record, or nil if the scan has not seen it.
func (sc *localScan) lookup(name string) *nameInfo {
	if i, ok := sc.index[name]; ok {
		return &sc.names[i]
	}
	return nil
}

// unassignedFormal returns the index of the formal called name, if it
// is never an assignment target: only then does its value at a return
// equal the caller's argument.
func (sc *localScan) unassignedFormal(name string) (int, bool) {
	if r := sc.lookup(name); r != nil && r.param >= 0 && !r.assigned {
		return r.param, true
	}
	return 0, false
}

func (sc *localScan) function(name, file string, line int, params []phpast.Param, body []phpast.Stmt, isMethod bool) *FuncLocal {
	fl := &FuncLocal{Name: name, File: file, Line: line, Params: len(params), RetFormal: -1}
	sc.fl = fl
	clear(sc.index)
	sc.names = sc.names[:0]
	for i, p := range params {
		r := sc.info(p.Name)
		r.param = i
		r.declared = true
		switch {
		case p.ByRef:
			sc.escape("by-ref param")
		case p.Variadic:
			sc.escape("variadic param")
		}
	}
	if isMethod {
		sc.escape("class method")
	}
	if len(params) > 64 {
		sc.escape("too many params")
	}

	// Taint assignments are order-sensitive through locals
	// ($x = $a; $y = $x;), so sweep the statement walk until a sweep
	// neither adds a variable nor grows one's atoms. Atom sets only
	// grow, so the sweep count is bounded by the lattice height; the
	// explicit cap is a backstop.
	for sweep := 0; sweep < 64; sweep++ {
		first := sweep == 0
		if !first {
			// Re-sweeps only propagate taint; structural facts
			// (sites, sinks, occurrences) were collected on the
			// first pass and must not be duplicated.
			sc.fl.Sites = sc.fl.Sites[:0]
			sc.fl.Sinks = sc.fl.Sinks[:0]
			sc.fl.Return = AtomSet{}
		}
		sc.grew = false
		sc.stmts(body, first)
		if !sc.grew {
			break
		}
	}

	sc.classifyTrivialReturn(body)
	sc.finishVars()
	return fl
}

func (sc *localScan) escape(reason string) {
	if !sc.fl.Escapes {
		sc.fl.Escapes = true
		sc.fl.EscapeReason = reason
	}
}

// stmts walks a statement list. first is true on the initial sweep,
// which also records structural facts (occurrences, forks, escapes).
func (sc *localScan) stmts(list []phpast.Stmt, first bool) {
	for _, s := range list {
		sc.stmt(s, first)
	}
}

func (sc *localScan) stmt(s phpast.Stmt, first bool) {
	switch n := s.(type) {
	case nil, *phpast.Nop, *phpast.InlineHTML:
	case *phpast.FuncDecl, *phpast.ClassDecl:
		// Nested declarations are separate scopes, summarized on
		// their own; executing the declaration is a no-op.
	case *phpast.ExprStmt:
		sc.expr(n.X, first)
	case *phpast.Echo:
		for _, e := range n.Args {
			sc.expr(e, first)
		}
	case *phpast.Block:
		sc.stmts(n.Stmts, first)
	case *phpast.If:
		sc.fl.Forks = true
		if first {
			sc.condOccurrence(n.Cond)
		}
		sc.expr(n.Cond, first)
		if n.Then != nil {
			sc.stmts(n.Then.Stmts, first)
		}
		sc.stmt(n.Else, first)
	case *phpast.While:
		sc.fl.Forks = true
		sc.expr(n.Cond, first)
		if n.Body != nil {
			sc.stmts(n.Body.Stmts, first)
		}
	case *phpast.DoWhile:
		sc.fl.Forks = true
		if n.Body != nil {
			sc.stmts(n.Body.Stmts, first)
		}
		sc.expr(n.Cond, first)
	case *phpast.For:
		sc.fl.Forks = true
		for _, e := range n.Init {
			sc.expr(e, first)
		}
		for _, e := range n.Cond {
			sc.expr(e, first)
		}
		for _, e := range n.Post {
			sc.expr(e, first)
		}
		if n.Body != nil {
			sc.stmts(n.Body.Stmts, first)
		}
	case *phpast.Foreach:
		sc.fl.Forks = true
		if n.ByRef {
			sc.escape("by-ref foreach")
		}
		src := sc.expr(n.Arr, first)
		if n.Key != nil {
			sc.assignTo(n.Key, src, false, first)
		}
		sc.assignTo(n.Val, src, false, first)
		if n.Body != nil {
			sc.stmts(n.Body.Stmts, first)
		}
	case *phpast.Switch:
		sc.fl.Forks = true
		if first {
			sc.condOccurrence(n.Subject)
		}
		sc.expr(n.Subject, first)
		for _, c := range n.Cases {
			if c.Cond != nil {
				sc.expr(c.Cond, first)
			}
			sc.stmts(c.Stmts, first)
		}
	case *phpast.Break, *phpast.Continue:
	case *phpast.Return:
		if n.X != nil {
			sc.fl.Return = sc.fl.Return.union(sc.expr(n.X, first))
			if first {
				sc.fl.RetLine = n.P.Line
			}
		}
	case *phpast.Global:
		sc.fl.TouchesGlobals = true
		sc.escape("global statement")
		if first {
			for _, name := range n.Names {
				sc.info(name).declared = true
			}
		}
	case *phpast.StaticVars:
		sc.escape("static variables")
		if first {
			for _, name := range n.Names {
				sc.info(name).declared = true
			}
		}
		for _, e := range n.Inits {
			sc.expr(e, first)
		}
	case *phpast.Unset:
		for _, v := range n.Vars {
			sc.expr(v, first)
		}
	case *phpast.Try:
		sc.fl.Forks = true
		sc.escape("try/catch")
		if n.Body != nil {
			sc.stmts(n.Body.Stmts, first)
		}
		for _, c := range n.Catches {
			if c.Body != nil {
				sc.stmts(c.Body.Stmts, first)
			}
		}
		if n.Finally != nil {
			sc.stmts(n.Finally.Stmts, first)
		}
	case *phpast.Throw:
		sc.escape("throw")
		sc.expr(n.X, first)
	default:
		sc.escape("unsupported statement")
	}
}

// expr walks an expression and returns its taint atoms.
func (sc *localScan) expr(e phpast.Expr, first bool) AtomSet {
	switch n := e.(type) {
	case nil:
		return AtomSet{}
	case *phpast.IntLit, *phpast.FloatLit, *phpast.StringLit, *phpast.BoolLit, *phpast.NullLit,
		*phpast.ConstFetch, *phpast.ClassConstFetch, *phpast.Name:
		return AtomSet{}
	case *phpast.InterpString:
		var a AtomSet
		for _, p := range n.Parts {
			a = a.union(sc.expr(p, first))
		}
		return a
	case *phpast.Var:
		return sc.varRead(n, first)
	case *phpast.ArrayDim:
		a := sc.expr(n.Arr, first)
		return a.union(sc.expr(n.Index, first))
	case *phpast.ArrayLit:
		var a AtomSet
		for _, it := range n.Items {
			if it.ByRef {
				sc.escape("by-ref array item")
			}
			a = a.union(sc.expr(it.Key, first))
			a = a.union(sc.expr(it.Value, first))
		}
		return a
	case *phpast.ListExpr:
		var a AtomSet
		for _, it := range n.Items {
			a = a.union(sc.expr(it, first))
		}
		return a
	case *phpast.Unary:
		return sc.expr(n.X, first)
	case *phpast.Binary:
		switch n.Op {
		case "&&", "||", "and", "or", "xor", "??":
			sc.fl.Forks = true
		}
		a := sc.expr(n.L, first)
		return a.union(sc.expr(n.R, first))
	case *phpast.Assign:
		if n.ByRef {
			sc.escape("by-ref assignment")
		}
		val := sc.expr(n.Value, first)
		return sc.assignTo(n.Target, val, n.Op == "" && !n.ByRef, first)
	case *phpast.IncDec:
		// Counts as a read-modify-write use of the variable.
		if v, ok := n.X.(*phpast.Var); ok {
			a := sc.varRead(v, first)
			sc.markAssignedFormal(v.Name)
			return a
		}
		return sc.expr(n.X, first)
	case *phpast.Ternary:
		sc.fl.Forks = true
		a := sc.expr(n.Cond, first)
		a = a.union(sc.expr(n.Then, first))
		return a.union(sc.expr(n.Else, first))
	case *phpast.Cast:
		return sc.expr(n.X, first)
	case *phpast.ErrorSuppress:
		return sc.expr(n.X, first)
	case *phpast.Call:
		return sc.call(n, first)
	case *phpast.MethodCall:
		sc.escape("method call")
		a := sc.expr(n.Obj, first)
		for _, arg := range n.Args {
			a = a.union(sc.expr(arg, first))
		}
		return a
	case *phpast.StaticCall:
		sc.escape("static call")
		var a AtomSet
		for _, arg := range n.Args {
			a = a.union(sc.expr(arg, first))
		}
		return a
	case *phpast.New:
		sc.escape("object construction")
		var a AtomSet
		for _, arg := range n.Args {
			a = a.union(sc.expr(arg, first))
		}
		return a
	case *phpast.PropFetch:
		sc.escape("property access")
		return sc.expr(n.Obj, first)
	case *phpast.StaticPropFetch:
		sc.escape("static property access")
		return AtomSet{}
	case *phpast.Isset:
		var a AtomSet
		for _, v := range n.Vars {
			a = a.union(sc.expr(v, first))
		}
		return a
	case *phpast.Empty:
		return sc.expr(n.X, first)
	case *phpast.Exit:
		sc.escape("exit")
		return sc.expr(n.X, first)
	case *phpast.Print:
		return sc.expr(n.X, first)
	case *phpast.Include:
		sc.escape("include")
		return sc.expr(n.X, first)
	case *phpast.Closure:
		sc.escape("closure")
		return AtomSet{}
	default:
		sc.escape("unsupported expression")
		return AtomSet{}
	}
}

// call handles a statically or dynamically named call expression.
func (sc *localScan) call(n *phpast.Call, first bool) AtomSet {
	name, ok := phpast.CalleeName(n)
	if !ok {
		sc.escape("dynamic call")
		var a AtomSet
		for _, arg := range n.Args {
			a = a.union(sc.expr(arg, first))
		}
		return a
	}
	if name == "call_user_func" || name == "call_user_func_array" {
		sc.escape("call_user_func")
	}
	args := make([]AtomSet, len(n.Args))
	for i, arg := range n.Args {
		args[i] = sc.expr(arg, first)
	}
	if callgraph.Sinks[name] {
		src, dst := sinkArgRoles(name, args)
		sc.fl.Sinks = append(sc.fl.Sinks, SinkLocal{Sink: name, Line: n.P.Line, Src: src, Dst: dst})
		return AtomSet{}
	}
	idx := len(sc.fl.Sites)
	sc.fl.Sites = append(sc.fl.Sites, Site{Callee: name, Line: n.P.Line, Args: args})
	// The call result's taint is exactly the site atom: the
	// composition layer routes argument taint through the callee's
	// ReturnTaint (or conservatively unions the arguments for
	// unknown built-ins), so unioning args here would only lose
	// precision.
	return AtomSet{Sites: []int{idx}}
}

// sinkArgRoles mirrors the interpreter's recordSink argument
// convention: file_put_contents writes args[1] to args[0]; every other
// sink copies args[0] to args[1].
func sinkArgRoles(name string, args []AtomSet) (src, dst AtomSet) {
	get := func(i int) AtomSet {
		if i < len(args) {
			return args[i]
		}
		return AtomSet{}
	}
	if name == "file_put_contents" || name == "file_put_content" {
		return get(1), get(0)
	}
	return get(0), get(1)
}

// varRead records a variable occurrence and returns its taint.
func (sc *localScan) varRead(v *phpast.Var, first bool) AtomSet {
	var r *nameInfo
	if first {
		r = sc.info(v.Name)
		r.occs++
	} else {
		r = sc.lookup(v.Name)
	}
	if isSuperglobal(v.Name) {
		if v.Name == "_FILES" {
			sc.fl.TouchesFiles = true
		}
		if v.Name == "GLOBALS" {
			sc.fl.TouchesGlobals = true
		}
		return AtomSet{}
	}
	switch {
	case r == nil:
		return AtomSet{}
	case r.param >= 0:
		return AtomSet{Formals: 1 << uint(r.param)}.union(r.taint)
	default:
		return r.taint
	}
}

// assignTo routes taint into an assignment target and maintains the
// dead-variable occurrence counts. plain is true for `=` without
// by-ref or a compound operator.
func (sc *localScan) assignTo(target phpast.Expr, val AtomSet, plain bool, first bool) AtomSet {
	switch t := target.(type) {
	case *phpast.Var:
		r := sc.info(t.Name)
		if first {
			r.occs++
			if plain {
				r.deadOccs++
			}
		}
		if r.param >= 0 {
			r.assigned = true
		}
		if isSuperglobal(t.Name) {
			if t.Name == "GLOBALS" {
				sc.fl.TouchesGlobals = true
			}
			return val
		}
		// Flow-insensitive: keep the union across the body.
		if u := r.taint.union(val); !r.bound || !u.equal(r.taint) {
			r.bound = true
			r.taint = u
			sc.grew = true
		}
		return val
	case *phpast.ArrayDim:
		// $a[expr] = v taints the whole array variable.
		sc.expr(t.Index, first)
		return sc.assignTo(t.Arr, val, false, first)
	case *phpast.ListExpr:
		for _, it := range t.Items {
			if it != nil {
				sc.assignTo(it, val, false, first)
			}
		}
		return val
	default:
		// Property/static-prop targets escape via expr's walk.
		sc.expr(target, first)
		return val
	}
}

func (sc *localScan) markAssignedFormal(name string) {
	if r := sc.lookup(name); r != nil && r.param >= 0 {
		r.assigned = true
	}
}

// condOccurrence records that an expression position is an entire
// if-condition or switch-subject — the eligibility anchor for merge
// variables.
func (sc *localScan) condOccurrence(e phpast.Expr) {
	if v, ok := e.(*phpast.Var); ok {
		sc.info(v.Name).condOccs++
	}
}

// classifyTrivialReturn detects the trivially instantiable body shape:
// declarations and no-ops followed by exactly one return of a
// never-assigned formal or a scalar literal, with nothing after it.
func (sc *localScan) classifyTrivialReturn(body []phpast.Stmt) {
	var ret *phpast.Return
	for _, s := range body {
		switch n := s.(type) {
		case *phpast.Nop, *phpast.InlineHTML, *phpast.FuncDecl, *phpast.ClassDecl:
		case *phpast.Return:
			if ret != nil {
				return // two returns: not trivial
			}
			ret = n
		default:
			return
		}
	}
	if ret == nil || ret.X == nil {
		return
	}
	// RetLine for const returns is the LITERAL's line, because the
	// engine's instantiation must allocate its concrete at the same
	// line the inlined evaluation would.
	line := ret.P.Line
	switch x := ret.X.(type) {
	case *phpast.Var:
		if i, ok := sc.unassignedFormal(x.Name); ok {
			sc.fl.RetFormal = i
		}
	case *phpast.StringLit:
		sc.fl.RetConstKind = "str"
		sc.fl.RetConstStr = x.Value
		line = x.P.Line
	case *phpast.IntLit:
		sc.fl.RetConstKind = "int"
		sc.fl.RetConstInt = x.Value
		line = x.P.Line
	case *phpast.FloatLit:
		sc.fl.RetConstKind = "float"
		sc.fl.RetConstF = x.Value
		line = x.P.Line
	case *phpast.BoolLit:
		sc.fl.RetConstKind = "bool"
		sc.fl.RetConstBool = x.Value
		line = x.P.Line
	case *phpast.NullLit:
		sc.fl.RetConstKind = "null"
		line = x.P.Line
	}
	if sc.fl.RetFormal >= 0 || sc.fl.RetConstKind != "" {
		sc.fl.RetTerm = sc.term(ret.X)
		sc.fl.RetLine = line
		return
	}
	// Not a trivial shape, but the single return may still be in the
	// term vocabulary (concat of formals and literals, or one call).
	sc.classifyReturnTerm(ret)
}

// classifyReturnTerm records a symbolic return term (or single-call
// composition shape) for a lone-return body that is not trivial.
func (sc *localScan) classifyReturnTerm(ret *phpast.Return) {
	if t := sc.term(ret.X); t != nil {
		sc.fl.RetTerm = t
		sc.fl.RetLine = ret.P.Line
		return
	}
	if c, ok := ret.X.(*phpast.Call); ok {
		name, named := phpast.CalleeName(c)
		if !named {
			return
		}
		args := make([]*TermNode, len(c.Args))
		for i, a := range c.Args {
			args[i] = sc.term(a)
			if args[i] == nil {
				return
			}
		}
		sc.fl.RetCall = &RetCallLocal{Callee: name, Args: args}
		sc.fl.RetLine = ret.P.Line
	}
}

// term builds a TermNode for expressions in the summary term
// vocabulary: scalar literals, unassigned formals, and "."-concats of
// those. Returns nil for anything else.
func (sc *localScan) term(e phpast.Expr) *TermNode {
	switch n := e.(type) {
	case *phpast.StringLit:
		return &TermNode{Op: "str", S: n.Value}
	case *phpast.IntLit:
		return &TermNode{Op: "int", I: n.Value}
	case *phpast.BoolLit:
		return &TermNode{Op: "bool", B: n.Value}
	case *phpast.NullLit:
		return &TermNode{Op: "null"}
	case *phpast.Var:
		if i, ok := sc.unassignedFormal(n.Name); ok {
			return &TermNode{Op: "formal", I: int64(i)}
		}
		return nil
	case *phpast.Binary:
		if n.Op != "." {
			return nil
		}
		l := sc.term(n.L)
		r := sc.term(n.R)
		if l == nil || r == nil {
			return nil
		}
		return &TermNode{Op: "concat", Args: []*TermNode{l, r}}
	default:
		return nil
	}
}

// finishVars computes the sorted DeadVars and MergeVars lists.
//
// A dead variable has at least one occurrence, every occurrence is a
// plain-assignment target, and it is not a formal, superglobal, or
// global/static declaration. A merge variable occurs exactly once,
// that occurrence is an entire if-condition or switch-subject, with
// the same exclusions.
func (sc *localScan) finishVars() {
	var dead, merge []string
	for name, i := range sc.index {
		r := &sc.names[i]
		if r.occs == 0 || r.declared || isSuperglobal(name) {
			continue
		}
		if r.deadOccs == r.occs {
			dead = append(dead, name)
		}
		if r.occs == 1 && r.condOccs == 1 {
			merge = append(merge, name)
		}
	}
	sort.Strings(dead)
	sort.Strings(merge)
	sc.fl.DeadVars = dead
	sc.fl.MergeVars = merge
}
