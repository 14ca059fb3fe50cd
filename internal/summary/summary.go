// Package summary computes per-function symbolic summaries for the
// interprocedural engine (ISSUE 10). A summary captures, for one PHP
// code unit, the facts a call site needs without inlining the body:
//
//   - per-formal taint transfer to the return value (a bitmask),
//   - the return value as a hash-consed smt term over formal
//     placeholders (smt.OpFormal), when the body is simple enough,
//   - sink effects (which formals reach which argument of which
//     file-writing built-in),
//   - whether the body touches $_FILES or global state,
//   - an escape verdict for constructs the summary language cannot
//     express (by-ref params, dynamic calls, closures, includes, ...).
//
// Escaped callees fall back to the engine's existing inlining, so
// findings never silently change. Summaries are built in two layers:
// a per-file syntactic layer (local.go) that is a pure function of one
// file's content — and therefore cacheable as a per-file artifact
// (artifact.go) — and a cross-function composition layer (compose.go)
// that resolves call effects bottom-up over the strongly connected
// components of the call graph, running a taint fixpoint with a
// widening bound inside recursive components.
package summary

import (
	"strings"

	"repro/internal/phpast"
	"repro/internal/sexpr"
	"repro/internal/smt"
)

// SinkEffect records that calling the function may invoke a sink
// built-in, and which formals flow into its source and destination
// arguments.
type SinkEffect struct {
	Sink       string
	Line       int
	SrcFormals uint64
	DstFormals uint64
}

// Summary is the composed, engine-facing summary of one function.
type Summary struct {
	Name   string // lowercase registered name
	File   string
	Line   int
	Params int

	// Escapes marks functions the summary language cannot describe;
	// the engine must inline them. EscapeReason names the first
	// escaping construct found (for -trace and tests).
	Escapes      bool
	EscapeReason string

	// Recursive marks members of a call-graph cycle; Widened marks
	// summaries whose taint fixpoint hit the widening bound (taint
	// over-approximated to all formals) or whose return term exceeded
	// the size cap.
	Recursive bool
	Widened   bool

	// Forks reports whether executing the body can split the
	// environment set (if/switch/loops/ternary/short-circuit ops).
	Forks bool

	// CallsEscaped reports that some call site inside the body targets
	// an escaped or dynamic callee, so the body's effects are not
	// fully captured by this summary's sink/taint fields.
	CallsEscaped bool

	// ReturnTaint is the bitmask of formals that may flow into the
	// return value (bit i = formal i; functions with more than 64
	// params escape long before this matters).
	ReturnTaint uint64

	// ReturnTerm is the return value as a term over smt Formal
	// leaves, when the return expression is within the summary
	// vocabulary (constants, formals, concatenation, one level of
	// composed calls). nil means opaque.
	ReturnTerm *smt.Term
	ReturnLine int

	// ReturnFormal / ReturnConst describe trivially instantiable
	// bodies (see Trivial): ReturnFormal >= 0 means the body returns
	// formal i unchanged; ReturnConst non-nil means it returns that
	// scalar constant.
	ReturnFormal int
	ReturnConst  sexpr.Expr

	Sinks          []SinkEffect
	TouchesFiles   bool // reads $_FILES
	TouchesGlobals bool // global statement or $GLOBALS access

	// DeadVars are locals whose every occurrence is a plain
	// assignment target: their values are never observed, so two
	// paths differing only in them are observably equal. MergeVars
	// are single-use condition variables (the entire if-condition or
	// switch-subject); path conditions over them are independent
	// literals, which is what makes statement-boundary path merging
	// exact. Both are sorted.
	DeadVars  []string
	MergeVars []string
}

// Trivial reports whether a call site may instantiate this summary
// without pushing a frame at all: the body is straight-line noise plus
// a single `return <formal>` or `return <scalar literal>`, with no
// sinks, no superglobal or global access, and no calls. Instantiation
// of such a body is byte-identical to inlining it.
func (s *Summary) Trivial() bool {
	return !s.Escapes && !s.Forks && !s.CallsEscaped &&
		len(s.Sinks) == 0 && !s.TouchesFiles && !s.TouchesGlobals &&
		(s.ReturnFormal >= 0 || s.ReturnConst != nil)
}

// Set is the full summary table for one scan.
type Set struct {
	Funcs map[string]*Summary

	// Computed counts the functions whose local layer was computed
	// fresh this scan (class methods count twice, once per registered
	// name); CacheHits counts per-file artifacts served from an
	// ArtifactStore instead. Both feed scan-level metrics.
	Computed  int
	CacheHits int
}

// Lookup returns the summary registered under the interpreter's
// lowercase name for the callee, or nil.
func (s *Set) Lookup(lname string) *Summary {
	if s == nil {
		return nil
	}
	return s.Funcs[lname]
}

// ArtifactStore serves per-file local layers computed by an earlier
// scan, such as the scanner's content-addressed cache. Load reports a
// miss (including an unreadable or stale artifact) with ok=false; Store
// is best-effort.
type ArtifactStore interface {
	Load(f *phpast.File) (fl *FileLocal, ok bool)
	Store(f *phpast.File, fl *FileLocal)
}

// Build computes summaries for a set of parsed files: the per-file
// local layer followed by cross-function composition. The file order
// must match the interpreter's, because both resolve duplicate
// function names first-declaration-wins. Computed is the total number
// of local-layer functions, duplicate names included.
func Build(files []*phpast.File, fac *smt.Factory) *Set {
	return BuildWith(files, fac, nil)
}

// BuildWith is Build with the local layer served from store where it
// holds a file's artifact; a nil store computes every file. Only
// freshly computed functions count toward Computed, so with a nil or
// cold store Computed equals Build's.
func BuildWith(files []*phpast.File, fac *smt.Factory, store ArtifactStore) *Set {
	locals := make([]*FileLocal, 0, len(files))
	computed, hits := 0, 0
	for _, f := range files {
		if store != nil {
			if fl, ok := store.Load(f); ok {
				locals = append(locals, fl)
				hits++
				continue
			}
		}
		fl := LocalFile(f)
		computed += len(fl.Funcs)
		if store != nil {
			store.Store(f, fl)
		}
		locals = append(locals, fl)
	}
	set := Compose(locals, fac)
	set.Computed, set.CacheHits = computed, hits
	return set
}

// isSuperglobal reports whether name is a PHP superglobal. Superglobals
// are never mergeable condition variables or dead locals: their values
// are shared with the caller's world.
func isSuperglobal(name string) bool {
	switch name {
	case "_FILES", "_GET", "_POST", "_REQUEST", "_COOKIE", "_SERVER", "_SESSION", "GLOBALS", "_ENV":
		return true
	}
	return false
}

func lower(s string) string { return strings.ToLower(s) }
