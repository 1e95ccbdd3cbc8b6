package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// implicitMethods are method names that satisfy a standard interface
// implicitly: code reaches them through the interface (fmt, errors,
// encoding/json, net/http, io, sort, log/slog), never by naming them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true,
	// http.ResponseWriter and http.Flusher
	"Header": true, "WriteHeader": true, "Flush": true,
	// slog.Handler
	"Enabled": true, "Handle": true, "WithAttrs": true, "WithGroup": true,
}

// apiDecl is one exported top-level declaration: its name and the
// source range of the declaration itself.
type apiDecl struct {
	name   string
	lo, hi token.Pos
}

// exportedDecls returns the exported top-level declarations of f:
// functions, methods (except implicitMethods), types, variables and
// constants.
func exportedDecls(f *ast.File) []apiDecl {
	var out []apiDecl
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && (d.Recv == nil || !implicitMethods[d.Name.Name]) {
				out = append(out, apiDecl{d.Name.Name, d.Pos(), d.End()})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, apiDecl{s.Name.Name, s.Pos(), s.End()})
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							out = append(out, apiDecl{n.Name, s.Pos(), s.End()})
						}
					}
				}
			}
		}
	}
	return out
}

// TestExportedAPIIsReferenced fails on an exported top-level
// declaration in a non-test file under internal/ that no identifier
// names anywhere outside its own declaration. Every .go file of the
// repository counts as a user — tests, examples, cmd/ and perfbench/ —
// and identifiers match by name alone, so a name is live if any
// package's code spells it. Comments do not count.
func TestExportedAPIIsReferenced(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	uses := map[string][]token.Pos{}
	var decls []apiDecl
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if strings.HasPrefix(filepath.ToSlash(rel), "internal/") && !strings.HasSuffix(path, "_test.go") {
			decls = append(decls, exportedDecls(f)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 || len(decls) < 300 {
		t.Fatalf("scanned only %d files and %d exported declarations — check the walk", files, len(decls))
	}
	for _, d := range decls {
		live := false
		for _, pos := range uses[d.name] {
			if pos < d.lo || pos >= d.hi {
				live = true
				break
			}
		}
		if !live {
			p := fset.Position(d.lo)
			rel, _ := filepath.Rel(root, p.Filename)
			t.Errorf("%s:%d: exported %s is named nowhere outside its declaration — delete it", filepath.ToSlash(rel), p.Line, d.name)
		}
	}
}
