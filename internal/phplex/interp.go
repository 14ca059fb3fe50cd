package phplex

import "strings"

// SegKind classifies one segment of an interpolated (double-quoted or
// heredoc) string body.
type SegKind int

// Segment kinds.
const (
	SegText     SegKind = iota // literal text, escapes decoded
	SegVar                     // $name
	SegVarIndex                // $name[index]
	SegVarProp                 // $name->prop
	SegExpr                    // {$ ... } complex expression, raw PHP source
)

// Segment is one piece of an interpolated string.
type Segment struct {
	Kind SegKind
	// Text holds the decoded literal text (SegText) or the raw inner PHP
	// expression source (SegExpr).
	Text string
	// Name is the variable name (without '$') for SegVar/SegVarIndex/SegVarProp.
	Name string
	// Index is the raw index for SegVarIndex: either a bare word (treated as
	// a string key by PHP), a number, or a variable name prefixed with '$'.
	Index string
	// Prop is the property name for SegVarProp.
	Prop string
}

// SplitInterp splits the raw body of a double-quoted string (as produced by
// the lexer for a StringInterp token, escapes NOT yet decoded) into literal
// and interpolation segments, following PHP's "simple" and "complex"
// interpolation syntax.
func SplitInterp(raw string) []Segment {
	var segs []Segment
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			segs = append(segs, Segment{Kind: SegText, Text: DecodeEscapes(text.String())})
			text.Reset()
		}
	}
	i := 0
	for i < len(raw) {
		c := raw[i]
		// Escaped character: keep for later decode, skip interpolation check.
		if c == '\\' && i+1 < len(raw) {
			text.WriteByte(c)
			text.WriteByte(raw[i+1])
			i += 2
			continue
		}
		// Complex syntax: {$expr}
		if c == '{' && i+1 < len(raw) && raw[i+1] == '$' {
			flush()
			depth := 1
			j := i + 1
			for j < len(raw) && depth > 0 {
				switch raw[j] {
				case '{':
					depth++
				case '}':
					depth--
					if depth == 0 {
						break
					}
				}
				if depth > 0 {
					j++
				}
			}
			inner := raw[i+1 : min(j, len(raw))]
			segs = append(segs, Segment{Kind: SegExpr, Text: inner})
			if j < len(raw) {
				j++ // consume '}'
			}
			i = j
			continue
		}
		// ${name} legacy syntax.
		if c == '$' && i+1 < len(raw) && raw[i+1] == '{' {
			j := i + 2
			for j < len(raw) && raw[j] != '}' {
				j++
			}
			name := raw[i+2 : j]
			flush()
			segs = append(segs, Segment{Kind: SegVar, Name: name})
			if j < len(raw) {
				j++
			}
			i = j
			continue
		}
		// Simple syntax: $name, optionally followed by [index] or ->prop.
		if c == '$' && i+1 < len(raw) && identStart[raw[i+1]] {
			flush()
			j := i + 1
			for j < len(raw) && identPart[raw[j]] {
				j++
			}
			name := raw[i+1 : j]
			// Array index?
			if j < len(raw) && raw[j] == '[' {
				k := j + 1
				for k < len(raw) && raw[k] != ']' {
					k++
				}
				if k < len(raw) {
					idx := raw[j+1 : k]
					segs = append(segs, Segment{Kind: SegVarIndex, Name: name, Index: stripQuotes(idx)})
					i = k + 1
					continue
				}
			}
			// Property access?
			if j+1 < len(raw) && raw[j] == '-' && raw[j+1] == '>' && j+2 < len(raw) && identStart[raw[j+2]] {
				k := j + 2
				for k < len(raw) && identPart[raw[k]] {
					k++
				}
				segs = append(segs, Segment{Kind: SegVarProp, Name: name, Prop: raw[j+2 : k]})
				i = k
				continue
			}
			segs = append(segs, Segment{Kind: SegVar, Name: name})
			i = j
			continue
		}
		text.WriteByte(c)
		i++
	}
	flush()
	return segs
}

// stripQuotes removes one layer of single or double quotes if idx is quoted.
// Inside simple interpolation syntax PHP treats bare words as string keys
// and quoted keys appear only in the complex syntax, but we are permissive.
func stripQuotes(idx string) string {
	if len(idx) >= 2 {
		if (idx[0] == '\'' && idx[len(idx)-1] == '\'') || (idx[0] == '"' && idx[len(idx)-1] == '"') {
			return idx[1 : len(idx)-1]
		}
	}
	return idx
}
