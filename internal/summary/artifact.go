package summary

import (
	"encoding/json"
	"fmt"

	"repro/internal/smt"
)

// ArtifactVersion is the summary artifact schema version. It is baked
// into both the serialized payload and the cache-key fingerprint
// (uchecker appends " summary=v<N>"), so a schema change self-
// invalidates cached artifacts instead of replaying stale ones; the
// in-payload copy additionally rejects artifacts reached through a
// stale fingerprint (e.g. a hand-edited cache directory).
const ArtifactVersion = 1

// TermNode is the serializable form of a summary return term. The
// vocabulary is intentionally small — exactly what the local layer can
// produce: formal placeholders, scalar constants, and concatenation.
type TermNode struct {
	Op   string      `json:"op"` // "formal","str","int","bool","null","concat"
	I    int64       `json:"i,omitempty"`
	S    string      `json:"s,omitempty"`
	B    bool        `json:"b,omitempty"`
	Args []*TermNode `json:"args,omitempty"`
}

// toSMT interns a TermNode into the scan's term factory. All formals
// are string-sorted: the summary vocabulary is PHP's string world, and
// taint does not care about sorts.
func (t *TermNode) toSMT(fac *smt.Factory) *smt.Term {
	if t == nil {
		return nil
	}
	switch t.Op {
	case "formal":
		return fac.Formal(int(t.I), smt.SortString)
	case "str":
		return fac.Str(t.S)
	case "int":
		return fac.Int(t.I)
	case "bool":
		return fac.Bool(t.B)
	case "null":
		return fac.Str("")
	case "concat":
		args := make([]*smt.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = a.toSMT(fac)
			if args[i] == nil {
				return nil
			}
		}
		return fac.Concat(args...)
	default:
		return nil
	}
}

// termNodeOfSMT converts a composed smt term back into the
// serializable vocabulary, or nil if the term strayed outside it
// (composition can only combine vocabulary terms, so this is total in
// practice; the nil path is a safety net).
func termNodeOfSMT(t *smt.Term) *TermNode {
	if t == nil {
		return nil
	}
	switch t.Op {
	case smt.OpFormal:
		return &TermNode{Op: "formal", I: t.I}
	case smt.OpStrConst:
		return &TermNode{Op: "str", S: t.S}
	case smt.OpIntConst:
		return &TermNode{Op: "int", I: t.I}
	case smt.OpBoolConst:
		return &TermNode{Op: "bool", B: t.B}
	case smt.OpConcat:
		args := make([]*TermNode, len(t.Args))
		for i, a := range t.Args {
			args[i] = termNodeOfSMT(a)
			if args[i] == nil {
				return nil
			}
		}
		return &TermNode{Op: "concat", Args: args}
	default:
		return nil
	}
}

// EncodeFile serializes one file's local summary layer.
func EncodeFile(fl *FileLocal) ([]byte, error) {
	if fl.Version != ArtifactVersion {
		return nil, fmt.Errorf("summary: encoding artifact with version %d, want %d", fl.Version, ArtifactVersion)
	}
	return json.Marshal(fl)
}

// DecodeFile deserializes a per-file artifact, rejecting payloads from
// a different schema version (the caller treats an error as a cache
// miss and recomputes).
func DecodeFile(b []byte) (*FileLocal, error) {
	var fl FileLocal
	if err := json.Unmarshal(b, &fl); err != nil {
		return nil, fmt.Errorf("summary: corrupt artifact: %w", err)
	}
	if fl.Version != ArtifactVersion {
		return nil, fmt.Errorf("summary: artifact version %d, want %d", fl.Version, ArtifactVersion)
	}
	return &fl, nil
}
