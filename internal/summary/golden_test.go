package summary

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/phpparser"
	"repro/internal/smt"
)

// Summary golden digests over every file of the 44 corpus.All() apps
// followed by the corpus.RandomPlugins(1, 400, 20) screening population,
// files in name order within an app:
//
//   - local:   EncodeFile(LocalFile(f)) of every file, concatenated, so
//     the cached per-file artifact is pinned byte for byte;
//   - compose: per app, every composed summary in name order: String(),
//     Sinks, DeadVars, MergeVars, ReturnTerm and Trivial().
//
// A change to the summary layer that alters any artifact or composed
// summary fails here. ArtifactVersion must be bumped together with any
// deliberate change to the local digest, so stale cache entries are
// never replayed.
const (
	goldenLocal   = "609888f3ed23cfedd2613cfcc0de592d0ef6c312f80514be19ef63f80d4cdc25"
	goldenCompose = "4218ef09522013fc603e6e84f826f96746f6430b4afc3d35742124e85e8297cc"
)

func TestSummaryGolden(t *testing.T) {
	apps := corpus.All()
	for _, s := range corpus.RandomPlugins(1, 400, 20) {
		apps = append(apps, s.App)
	}
	localH, composeH := sha256.New(), sha256.New()
	nfiles, nfuncs := 0, 0
	for _, app := range apps {
		names := make([]string, 0, len(app.Sources))
		for n := range app.Sources {
			names = append(names, n)
		}
		sort.Strings(names)
		locals := make([]*FileLocal, 0, len(names))
		for _, n := range names {
			f, _ := phpparser.Parse(n, app.Sources[n])
			fl := LocalFile(f)
			raw, err := EncodeFile(fl)
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name, n, err)
			}
			localH.Write(raw)
			locals = append(locals, fl)
			nfiles++
		}
		set := Compose(locals, smt.NewFactory())
		fmt.Fprintf(composeH, "app %q %d\n", app.Name, len(set.Funcs))
		fnames := make([]string, 0, len(set.Funcs))
		for n := range set.Funcs {
			fnames = append(fnames, n)
		}
		sort.Strings(fnames)
		for _, n := range fnames {
			s := set.Funcs[n]
			ret := "nil"
			if s.ReturnTerm != nil {
				ret = s.ReturnTerm.String()
			}
			fmt.Fprintf(composeH, "%s|%+v|%q|%q|%s|%v\n", s, s.Sinks, s.DeadVars, s.MergeVars, ret, s.Trivial())
		}
		nfuncs += len(set.Funcs)
	}
	t.Logf("%d files, %d composed summaries", nfiles, nfuncs)
	if got := fmt.Sprintf("%x", localH.Sum(nil)); got != goldenLocal {
		t.Errorf("local artifact digest = %s, want %s", got, goldenLocal)
	}
	if got := fmt.Sprintf("%x", composeH.Sum(nil)); got != goldenCompose {
		t.Errorf("compose digest = %s, want %s", got, goldenCompose)
	}
}
