package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// identDocs are the prose docs whose code mentions must name live
// identifiers, relative to the repository root; docs/*.md joins them.
var identDocs = []string{"README.md", "ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	// fencedBlock matches a fenced code block; inlineSpan an inline code
	// span outside one.
	fencedBlock = regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```")
	inlineSpan  = regexp.MustCompile("`[^`\n]+`")
	// qualifiedIdent matches pkg.Name for an exported Name, where pkg is
	// not itself part of a path, a file name or a longer selector.
	// Lower-case names are left out: in the docs they are perfbench
	// metrics (core.map_s), not identifiers.
	qualifiedIdent = regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)\.([A-Z]\w*)`)
)

// codeSpans returns the text of every fenced block and inline code span
// in a markdown document.
func codeSpans(md string) []string {
	spans := fencedBlock.FindAllString(md, -1)
	return append(spans, inlineSpan.FindAllString(fencedBlock.ReplaceAllString(md, ""), -1)...)
}

// topLevelNames returns the names a package declares at top level in
// its non-test files: functions and methods, types, variables and
// constants. Methods count because the docs name some as pkg.Method
// (folding.ComputeBands).
func topLevelNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	names := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					names[d.Name.Name] = true
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names[s.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range s.Names {
								names[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return names
}

// TestDocsNameLiveIdentifiers fails when a doc's code names pkg.Name for
// a package under internal/ that declares no top-level Name, so a
// deleted or renamed function cannot linger in the docs.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	root := filepath.Join("..", "..")
	entries, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			decls[e.Name()] = topLevelNames(t, filepath.Join(root, "internal", e.Name()))
		}
	}
	docs := append([]string(nil), identDocs...)
	more, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range more {
		docs = append(docs, filepath.Join("docs", filepath.Base(m)))
	}
	sort.Strings(docs)
	checked := 0
	for _, doc := range docs {
		stale := map[string]bool{}
		for _, span := range codeSpans(readDoc(t, doc)) {
			for _, m := range qualifiedIdent.FindAllStringSubmatch(span, -1) {
				names, ok := decls[m[1]]
				if !ok {
					continue
				}
				checked++
				if !names[m[2]] {
					stale[m[1]+"."+m[2]] = true
				}
			}
		}
		for _, id := range sortedKeys(stale) {
			t.Errorf("%s names %s, which internal/%s does not declare", doc, id, strings.SplitN(id, ".", 2)[0])
		}
	}
	if checked < 50 {
		t.Fatalf("checked only %d qualified identifiers in the docs — check the scan", checked)
	}
}

// sortedKeys returns a set's members in order.
func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
