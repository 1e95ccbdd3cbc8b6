package doccheck

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// module is the import path of the repository root. perfbench's module
// (repro/perfbench) sits under it, so a directory's import path is
// module joined with its path from the root.
const module = "repro"

// stdDispatch declares the standard-library interfaces through which the
// standard library calls methods that no code names. A method counts as
// called when its type implements one of them and the interface declares
// it.
const stdDispatch = `package dispatch

import (
	"encoding"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
)

type (
	_ = error                                   // errors print through Error
	_ interface{ Unwrap() error }               // errors.Is and errors.As walk the chain
	_ interface{ Unwrap() []error }             // errors.Is and errors.As walk a joined error
	_ interface{ Is(error) bool }               // errors.Is matches a target
	_ = fmt.Stringer                            // fmt prints values through String
	_ = json.Marshaler                          // encoding/json
	_ = json.Unmarshaler                        // encoding/json
	_ = encoding.TextMarshaler                  // encoding/json map keys and flag values
	_ = encoding.TextUnmarshaler                // encoding/json map keys and flag values
	_ = http.Handler                            // net/http serves through ServeHTTP
	_ = http.ResponseWriter                     // net/http and its middleware
	_ = http.Flusher                            // streaming responses
	_ interface{ Unwrap() http.ResponseWriter } // http.ResponseController
	_ = io.Reader                               // io.Copy, bufio, net/http
	_ = io.Writer                               // io.Copy, fmt.Fprint
	_ = io.Closer                               // callers holding an io.ReadCloser
	_ = sort.Interface                          // sort.Sort
	_ = slog.Handler                            // slog.Logger
)
`

// supportPackages are test-support packages: only tests import them.
var supportPackages = map[string]string{
	"deepeq":      "the NaN-aware deep-equality tests compare reports with",
	"faultinject": "the fault-injection harness of the chaos tests",
}

// testOnly lists the exported names that only tests call and that stay,
// each with its reason. A key is pkg.Name or pkg.Type.Method.
var testOnly = map[string]string{
	// The simulator's programming model: the calls a user-written app
	// makes on its rank, whether or not a shipped app makes them.
	"sim.Rank.Now":         "the simulator's programming model",
	"sim.Rank.Isend":       "the simulator's programming model",
	"sim.Rank.Irecv":       "the simulator's programming model",
	"sim.Rank.Waitall":     "the simulator's programming model",
	"sim.Rank.Alltoall":    "the simulator's programming model",
	"sim.Rank.RegionEnter": "the simulator's programming model",
	"sim.Rank.RegionExit":  "the simulator's programming model",
	"sim.Rank.Reduce":      "the simulator's programming model",
	// Test oracles.
	"profile.Compute": "the in-memory flat profile the pipeline's merged profile is tested against",
	// Deleting these would copy session logic into the tests of more
	// than one package.
	"session.Session.Barrier": "the foldsvc and faultinject tests wait for a session's snapshot through it",
	"foldsvc.Server.Sessions": "the foldsvc and faultinject tests reach a daemon's sessions through it",
}

// srcPackage is one directory's non-test files, type-checked.
type srcPackage struct {
	files []*ast.File
	types *types.Package
}

// program is every package of the repository without its test files,
// type-checked from source against the standard library's export data.
type program struct {
	fset *token.FileSet
	pkgs map[string]*srcPackage // by import path
	info *types.Info
	std  *types.Package // stdDispatch
}

// loadProgram parses every non-test .go file under root and type-checks
// each package.
func loadProgram(t *testing.T, root string) *program {
	t.Helper()
	prog := &program{
		fset: token.NewFileSet(),
		pkgs: map[string]*srcPackage{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	external := map[string]bool{}
	noteImports := func(f *ast.File) {
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if p != module && !strings.HasPrefix(p, module+"/") {
				external[p] = true
			}
		}
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(prog.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := path.Join(module, filepath.ToSlash(rel))
		if prog.pkgs[ip] == nil {
			prog.pkgs[ip] = &srcPackage{}
		}
		prog.pkgs[ip].files = append(prog.pkgs[ip].files, f)
		noteImports(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dispatch, err := parser.ParseFile(prog.fset, "dispatch.go", stdDispatch, 0)
	if err != nil {
		t.Fatal(err)
	}
	noteImports(dispatch)

	exports := exportFiles(t, root, external)
	gc := importer.ForCompiler(prog.fset, "gc", func(p string) (io.ReadCloser, error) {
		if f := exports[p]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", p)
	})
	var conf types.Config
	conf.Importer = importerFunc(func(p string) (*types.Package, error) {
		pkg := prog.pkgs[p]
		if pkg == nil {
			return gc.Import(p)
		}
		if pkg.types == nil {
			var err error
			if pkg.types, err = conf.Check(p, prog.fset, pkg.files, prog.info); err != nil {
				return nil, err
			}
		}
		return pkg.types, nil
	})
	for p := range prog.pkgs {
		if _, err := conf.Importer.Import(p); err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
	}
	if prog.std, err = conf.Check("dispatch", prog.fset, []*ast.File{dispatch}, prog.info); err != nil {
		t.Fatalf("type-check stdDispatch: %v", err)
	}
	return prog
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportFiles asks the go command for the export data of the given
// standard-library packages: import path → file.
func exportFiles(t *testing.T, root string, pkgs map[string]bool) map[string]string {
	t.Helper()
	args := []string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
	for p := range pkgs {
		args = append(args, p)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	files := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		if p, f, ok := strings.Cut(sc.Text(), " "); ok {
			files[p] = f
		}
	}
	return files
}

// apiDecl is one exported top-level declaration under internal/: its
// object, the key testOnly uses for it and its source range.
type apiDecl struct {
	obj    types.Object
	key    string
	lo, hi token.Pos
}

// exportedDecls returns the exported top-level declarations of f:
// functions, methods, types, variables and constants.
func exportedDecls(f *ast.File, info *types.Info) []apiDecl {
	var out []apiDecl
	add := func(id *ast.Ident, lo, hi token.Pos) {
		obj := info.Defs[id]
		key := obj.Pkg().Name() + "." + id.Name
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				key = obj.Pkg().Name() + "." + receiverName(recv.Type()) + "." + id.Name
			}
		}
		out = append(out, apiDecl{obj, key, lo, hi})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				add(d.Name, d.Pos(), d.End())
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(s.Name, s.Pos(), s.End())
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							add(n, s.Pos(), s.End())
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName is the name of a method's receiver type, without its
// pointer.
func receiverName(t types.Type) string {
	if n, ok := deref(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// origin maps an instantiated generic function or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// TestExportedAPIIsReferenced fails on an exported top-level declaration
// in a non-test file under internal/ that no non-test file calls: the
// product (cmd/, examples/, perfbench/, the root package and internal/)
// must reach it, or testOnly must give the reason it stays. Each
// reference is resolved to its declaration with go/types, so a name
// is not kept alive by another that is spelled the same. A reference
// inside the declaration itself, or naming a type as a method's
// receiver, does not count. A method also counts as called when its
// type implements an interface that declares it and that interface is
// one of stdDispatch or a repository interface whose method non-test
// code calls.
func TestExportedAPIIsReferenced(t *testing.T) {
	root := filepath.Join("..", "..")
	prog := loadProgram(t, root)

	receivers := map[token.Pos]bool{}
	var decls []apiDecl
	for ip, pkg := range prog.pkgs {
		for _, f := range pkg.files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id.Pos()] = true
						}
						return true
					})
				}
			}
			if strings.HasPrefix(ip, module+"/internal/") && supportPackages[pkg.types.Name()] == "" {
				decls = append(decls, exportedDecls(f, prog.info)...)
			}
		}
	}
	if len(prog.pkgs) < 40 || len(decls) < 300 {
		t.Fatalf("loaded only %d packages and %d exported declarations — check the walk", len(prog.pkgs), len(decls))
	}
	uses := map[types.Object][]token.Pos{}
	for id, obj := range prog.info.Uses {
		if !receivers[id.Pos()] {
			uses[origin(obj)] = append(uses[origin(obj)], id.Pos())
		}
	}

	// Interfaces through which a call reaches every implementation: the
	// standard library's, and the repository's that non-test code calls.
	type dispatcher struct {
		iface *types.Interface
		std   bool
	}
	var dispatchers []dispatcher
	for id, obj := range prog.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
			dispatchers = append(dispatchers, dispatcher{iface, tn.Pkg() == prog.std})
		} else if tn.Pkg() == prog.std {
			t.Fatalf("stdDispatch: %s is not an interface", id.Name)
		}
	}
	dispatched := func(fn *types.Func) bool {
		named, ok := types.Unalias(deref(fn.Type().(*types.Signature).Recv().Type())).(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			return false
		}
		for _, d := range dispatchers {
			if !types.Implements(named, d.iface) && !types.Implements(types.NewPointer(named), d.iface) {
				continue
			}
			for i := 0; i < d.iface.NumMethods(); i++ {
				if m := d.iface.Method(i); m.Name() == fn.Name() && (d.std || len(uses[m]) > 0) {
					return true
				}
			}
		}
		return false
	}

	declared := map[string]bool{}
	for _, d := range decls {
		called := false
		for _, pos := range uses[d.obj] {
			if pos < d.lo || pos >= d.hi {
				called = true
				break
			}
		}
		if fn, ok := d.obj.(*types.Func); ok && !called && fn.Type().(*types.Signature).Recv() != nil {
			called = dispatched(fn)
		}
		switch {
		case called && testOnly[d.key] != "":
			t.Errorf("%s: testOnly lists %s, which non-test code calls — drop the entry", prog.where(d.lo, root), d.key)
		case !called && testOnly[d.key] == "":
			t.Errorf("%s: exported %s has no caller outside tests — delete it, or list it in testOnly with the reason it stays", prog.where(d.lo, root), d.key)
		}
		declared[d.key] = true
	}
	for key := range testOnly {
		if !declared[key] {
			t.Errorf("testOnly lists %s, which is not an exported declaration under internal/ — drop the entry", key)
		}
	}
}

// deref strips one pointer from t.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// where formats pos as a root-relative file:line.
func (prog *program) where(pos token.Pos, root string) string {
	p := prog.fset.Position(pos)
	rel, err := filepath.Rel(root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
}
