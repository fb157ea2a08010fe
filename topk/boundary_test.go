package topk_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// importRules is the module's import-boundary map, written down here and
// nowhere else (`make api-check` runs this test). cmd/ and examples/ are
// consumers of the PUBLIC surface. cmd/topkd alone may add internal/serve —
// the HTTP frontend's tenant pool and handlers, factored out of the binary
// so they are testable without a socket — and in exchange internal/serve
// adds only internal/wal, its durability layer, and internal/wal nothing,
// so the whole server path still consumes the supported API and inherits
// its guarantees instead of re-deriving them. internal/sketch is a
// stdlib-only leaf (not even rngx: its seed mixing is self-contained), so
// the summaries stay reusable, and topk/items stands on the facade and that
// leaf, so it cannot reach around the facade into engines or protocols.
//
// A rule forbids the files under dir every import from this module that is
// not in allow; its _test.go files may also import what testAllow lists
// (the package itself from an external test package, the item layer's
// internal/stream/items traces, and the serve tests' internal/chaintest
// table). skip names one subdirectory that has a rule of its own.
var importRules = []struct {
	name, dir, skip  string
	allow, testAllow []string
	msg              string
}{
	{name: "cmd", dir: "../cmd", skip: "../cmd/topkd", allow: []string{"topkmon/topk", "topkmon/topk/items"},
		msg: "internal imports leaked into public entry points"},
	{name: "cmd-topkd", dir: "../cmd/topkd", allow: []string{"topkmon/topk", "topkmon/topk/items", "topkmon/internal/serve"},
		msg: "cmd/topkd may import only topkmon/internal/serve beyond the public packages"},
	{name: "examples", dir: "../examples", allow: []string{"topkmon/topk", "topkmon/topk/items"},
		msg: "internal imports leaked into public entry points"},
	{name: "serve", dir: "../internal/serve", allow: []string{"topkmon/topk", "topkmon/internal/wal"},
		testAllow: []string{"topkmon/internal/chaintest"},
		msg:       "internal/serve may only consume topk and internal/wal"},
	{name: "wal", dir: "../internal/wal", allow: []string{"topkmon/topk"},
		msg: "internal/wal may only consume the public topk facade"},
	{name: "sketch", dir: "../internal/sketch", testAllow: []string{"topkmon/internal/sketch"},
		msg: "internal/sketch must stay a stdlib-only leaf"},
	{name: "items", dir: "items", allow: []string{"topkmon/topk", "topkmon/internal/sketch"},
		testAllow: []string{"topkmon/topk/items", "topkmon/internal/stream/items"},
		msg:       "topk/items may only consume topk and internal/sketch"},
}

func TestImportBoundaries(t *testing.T) {
	for _, r := range importRules {
		t.Run(r.name, func(t *testing.T) {
			fset := token.NewFileSet()
			err := filepath.WalkDir(r.dir, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() && path == filepath.FromSlash(r.skip) {
					return fs.SkipDir
				}
				if d.IsDir() || !strings.HasSuffix(path, ".go") {
					return nil
				}
				isTest := strings.HasSuffix(path, "_test.go")
				f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
				if err != nil {
					return err
				}
				for _, imp := range f.Imports {
					p := strings.Trim(imp.Path.Value, `"`)
					if (p == "topkmon" || strings.HasPrefix(p, "topkmon/")) && !slices.Contains(r.allow, p) &&
						!(isTest && slices.Contains(r.testAllow, p)) {
						t.Errorf("%s, but %s imports %s", r.msg, path, p)
					}
				}
				return nil
			})
			// A missing dir reaches the callback as an error, so a rule cannot
			// pass because its subject was moved away.
			if err != nil {
				t.Fatalf("%s: %v", r.msg, err)
			}
		})
	}
}
