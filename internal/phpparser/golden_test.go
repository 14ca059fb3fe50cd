package phpparser_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/corpus"
	"repro/internal/phpast"
	"repro/internal/phplex"
	"repro/internal/phpparser"
)

// Front-end golden digests. Each is a SHA-256 over every file of the 44
// corpus.All() apps followed by the corpus.RandomPlugins(1, 400, 20)
// screening population, files in name order within an app:
//
//   - tokens: every token's kind, value and position, plus lexer errors;
//   - dump:   phpast.Dump of every parsed file, plus parse errors;
//   - deep:   a reflective walk of every AST node, which (unlike Dump)
//     also pins positions, end lines and every other field.
//
// A front-end change that alters any token or node fails here. These
// digests must only change together with a deliberate, explained change
// to the accepted PHP dialect.
const (
	goldenTokens = "43a73efb14b8aa8321d4bcc295244db5bbd9aa74f712b0d40716966bf434d256"
	goldenDump   = "6ad8fbf68db07f041dcc07cd640659ba6f648164c42e6d082a45e4a63c5d93f2"
	goldenDeep   = "ea4ece0326db00285b77cac7ac229d1c5d04e03aca70d1c8d5da27165643f1c1"
)

type goldenFile struct{ name, src string }

func goldenInputs() []goldenFile {
	apps := corpus.All()
	for _, s := range corpus.RandomPlugins(1, 400, 20) {
		apps = append(apps, s.App)
	}
	var out []goldenFile
	for _, app := range apps {
		names := make([]string, 0, len(app.Sources))
		for n := range app.Sources {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			out = append(out, goldenFile{app.Name + "/" + n, app.Sources[n]})
		}
	}
	return out
}

func TestFrontEndGolden(t *testing.T) {
	files := goldenInputs()
	tokH, dumpH, deepH := sha256.New(), sha256.New(), sha256.New()
	var ntok int
	var buf []byte
	for _, f := range files {
		lx := phplex.New(f.name, f.src)
		toks := lx.Tokens()
		ntok += len(toks)
		buf = strconv.AppendQuote(append(buf[:0], "file "...), f.name)
		for _, tk := range toks {
			buf = append(buf, '\n')
			buf = strconv.AppendInt(buf, int64(tk.Kind), 10)
			buf = strconv.AppendQuote(append(buf, ' '), tk.Value)
			buf = strconv.AppendInt(append(buf, ' '), int64(tk.Pos.Offset), 10)
			buf = strconv.AppendInt(append(buf, ' '), int64(tk.Pos.Line), 10)
			buf = strconv.AppendInt(append(buf, ' '), int64(tk.Pos.Col), 10)
		}
		for _, err := range lx.Errors() {
			buf = append(append(buf, "\nerr "...), err.Error()...)
		}
		tokH.Write(append(buf, '\n'))

		ast, errs := phpparser.Parse(f.name, f.src)
		io.WriteString(dumpH, phpast.Dump(ast))
		for _, err := range errs {
			fmt.Fprintf(dumpH, "err %s\n", err)
		}
		buf = deepDump(buf[:0], reflect.ValueOf(ast))
		deepH.Write(buf)
	}
	t.Logf("%d files, %d tokens", len(files), ntok)
	check := func(what string, h hash.Hash, want string) {
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
			t.Errorf("%s digest = %s, want %s", what, got, want)
		}
	}
	check("tokens", tokH, goldenTokens)
	check("dump", dumpH, goldenDump)
	check("deep", deepH, goldenDeep)
}

// deepDump appends every field reachable from v to buf: type names,
// struct fields in declaration order, slice elements and map entries in
// key order. The AST is a tree, so no cycle detection is needed.
func deepDump(buf []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return append(buf, "nil"...)
		}
		return deepDump(buf, v.Elem())
	case reflect.Struct:
		typ := v.Type()
		buf = append(append(buf, typ.Name()...), '{')
		for i := 0; i < v.NumField(); i++ {
			buf = append(append(buf, typ.Field(i).Name...), ':')
			buf = append(deepDump(buf, v.Field(i)), ' ')
		}
		return append(buf, '}')
	case reflect.Slice:
		buf = append(strconv.AppendInt(append(buf, '['), int64(v.Len()), 10), ':')
		for i := 0; i < v.Len(); i++ {
			buf = append(deepDump(buf, v.Index(i)), ',')
		}
		return append(buf, ']')
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		buf = append(strconv.AppendInt(append(buf, "map["...), int64(v.Len()), 10), ':')
		for _, k := range keys {
			buf = append(strconv.AppendQuote(buf, k.String()), '=')
			buf = append(deepDump(buf, v.MapIndex(k)), ',')
		}
		return append(buf, ']')
	case reflect.String:
		return strconv.AppendQuote(buf, v.String())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(buf, v.Int(), 10)
	case reflect.Float32, reflect.Float64:
		return strconv.AppendFloat(buf, v.Float(), 'g', -1, 64)
	case reflect.Bool:
		return strconv.AppendBool(buf, v.Bool())
	default:
		panic(fmt.Sprintf("deepDump: unhandled kind %s", v.Kind()))
	}
}
