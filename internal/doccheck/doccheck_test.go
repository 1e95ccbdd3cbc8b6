// Package doccheck enforces the documentation contract: every exported
// identifier in the core analysis packages must carry a doc comment,
// every pkg.Name the docs' code names must exist, and every exported
// top-level name under internal/ must have a caller outside tests. It
// runs as an ordinary test so `go test ./internal/doccheck` (wired into
// `make check`) fails listing each undocumented identifier, each stale
// mention and each name only tests call.
package doccheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// checkedPackages are the packages whose exported API must be fully
// documented. Paths are relative to this package's directory.
var checkedPackages = []string{
	"../core",
	"../cluster",
	"../online",
	"../pipeline",
	"../obs",
	"../foldsvc",
	"../faultinject",
}

// missingDocs parses one package directory and returns a "file:line:
// identifier" entry for every exported declaration without a doc
// comment. Test files are skipped: they are not API surface.
func missingDocs(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}

	var missing []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s %s",
			filepath.Join(dir, filepath.Base(p.Filename)), p.Line, what, name))
	}

	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil && receiverExported(d) {
						what := "func"
						if d.Recv != nil {
							what = "method"
						}
						report(d.Pos(), what, funcName(d))
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	sort.Strings(missing)
	return missing
}

// checkGenDecl inspects a const/var/type block. A doc comment on the
// enclosing block documents all of its specs; otherwise each exported
// spec needs its own.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	if d.Doc != nil {
		return
	}
	kind := d.Tok.String()
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), kind, s.Name.Name)
			}
		case *ast.ValueSpec:
			if s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name.Pos(), kind, name.Name)
				}
			}
		}
	}
}

// receiverExported reports whether a declaration is reachable API: a
// plain function, or a method on an exported receiver type. Exported
// methods on unexported types (interface satisfiers) are not surface.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	recv := d.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if gen, ok := recv.(*ast.IndexExpr); ok { // generic receiver T[P]
		recv = gen.X
	}
	id, ok := recv.(*ast.Ident)
	return !ok || id.IsExported()
}

// funcName renders Recv.Name for methods, or the bare name for
// functions, for readable failure output.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	recv := d.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// hasPackageDoc reports whether any file in the directory carries a
// package-level doc comment.
func hasPackageDoc(t *testing.T, dir string) bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			if file.Doc != nil {
				return true
			}
		}
	}
	return false
}

func TestExportedIdentifiersAreDocumented(t *testing.T) {
	for _, dir := range checkedPackages {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			if !hasPackageDoc(t, dir) {
				t.Errorf("%s: package has no package-level doc comment", dir)
			}
			for _, m := range missingDocs(t, dir) {
				t.Errorf("undocumented exported identifier: %s", m)
			}
		})
	}
}
