package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// This file extends the documentation gate from doc comments to the
// user-facing docs themselves: every command under cmd/ must have a
// section in docs/CLI.md whose flag table lists exactly the flags the
// command registers, and every HTTP route and metric family the
// foldsvc daemon registers must appear in docs/OPERATIONS.md. The
// checks read the sources, so adding a binary, flag, route, or metric
// without documenting it — or removing one and leaving its row — fails
// `make check` with the name.

// readDoc loads one file under docs/ (or the repo root).
func readDoc(t *testing.T, rel string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", rel))
	if err != nil {
		t.Fatalf("read %s: %v", rel, err)
	}
	return string(data)
}

// foldsvcSources concatenates the non-test sources of internal/foldsvc.
func foldsvcSources(t *testing.T) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "foldsvc", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestEveryCommandIsDocumented fails when a cmd/ binary has no
// "## <name>" section in docs/CLI.md.
func TestEveryCommandIsDocumented(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "..", "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	cli := readDoc(t, "docs/CLI.md")
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		heading := regexp.MustCompile(`(?m)^## ` + regexp.QuoteMeta(name) + `\b`)
		if !heading.MatchString(cli) {
			t.Errorf("cmd/%s has no `## %s` section in docs/CLI.md", name, name)
		}
	}
}

// flagNameArg maps each flag-package function that registers a flag to
// the position of its name argument.
var flagNameArg = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0,
	"String": 0, "Uint": 0, "Uint64": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1,
	"Int64Var": 1, "StringVar": 1, "UintVar": 1, "Uint64Var": 1,
	"TextVar": 1, "Var": 1,
}

// registeredFlags parses one command's main.go and returns the names
// of the flags it registers through the flag package.
func registeredFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		at, registers := flagNameArg[sel.Sel.Name]
		if !ok || pkg.Name != "flag" || !registers || len(call.Args) <= at {
			return true
		}
		lit, ok := call.Args[at].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Errorf("%s: flag.%s registers a flag whose name is not a string literal", path, sel.Sel.Name)
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		flags[name] = true
		return true
	})
	return flags
}

// TestCommandFlagsAreDocumented fails when the flags a cmd/<name>/main.go
// registers differ from the `-flag` rows of the "## <name>" table in
// docs/CLI.md: a flag without a row, or a row without a flag.
func TestCommandFlagsAreDocumented(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join("..", "..", "cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("found no cmd/*/main.go — check the scan")
	}
	cli := readDoc(t, "docs/CLI.md")
	row := regexp.MustCompile("(?m)^\\|\\s*`-([A-Za-z0-9][A-Za-z0-9-]*)`")
	for _, path := range mains {
		name := filepath.Base(filepath.Dir(path))
		heading := regexp.MustCompile(`(?m)^## ` + regexp.QuoteMeta(name) + `\b`)
		loc := heading.FindStringIndex(cli)
		if loc == nil {
			continue // TestEveryCommandIsDocumented reports it
		}
		section := cli[loc[1]:]
		if next := strings.Index(section, "\n## "); next >= 0 {
			section = section[:next]
		}
		documented := map[string]bool{}
		for _, m := range row.FindAllStringSubmatch(section, -1) {
			documented[m[1]] = true
		}
		registered := registeredFlags(t, path)
		for _, f := range sortedKeys(registered) {
			if !documented[f] {
				t.Errorf("cmd/%s registers -%s, which has no row in the `## %s` table of docs/CLI.md", name, f, name)
			}
		}
		for _, f := range sortedKeys(documented) {
			if !registered[f] {
				t.Errorf("docs/CLI.md documents -%s under `## %s`, but cmd/%s registers no such flag", f, name, name)
			}
		}
	}
}

// TestServiceRoutesAreDocumented fails when a route registered on the
// foldsvc mux is absent from docs/OPERATIONS.md.
func TestServiceRoutesAreDocumented(t *testing.T) {
	src := foldsvcSources(t)
	ops := readDoc(t, "docs/OPERATIONS.md")
	re := regexp.MustCompile(`mux\.Handle\(\s*"([^"]+)"`)
	seen := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(src, -1) {
		route := m[1]
		if seen[route] {
			continue
		}
		seen[route] = true
		if !strings.Contains(ops, "`"+route+"`") {
			t.Errorf("foldsvc route %s is not documented in docs/OPERATIONS.md", route)
		}
	}
	if len(seen) == 0 {
		t.Fatal("found no mux.Handle registrations in internal/foldsvc — check the scan")
	}
}

// TestServiceMetricsAreDocumented fails when a metric family
// registered by the foldsvc package (string-literal names passed to
// the obs registry constructors) is missing from the
// docs/OPERATIONS.md catalog.
func TestServiceMetricsAreDocumented(t *testing.T) {
	src := foldsvcSources(t)
	ops := readDoc(t, "docs/OPERATIONS.md")
	re := regexp.MustCompile(`\.(Counter|Gauge|GaugeFunc|Histogram)\(\s*"([a-z][a-z0-9_]+)"`)
	seen := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(src, -1) {
		seen[m[2]] = true
	}
	if len(seen) < 10 {
		t.Fatalf("found only %d metric registrations in internal/foldsvc — check the scan", len(seen))
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !strings.Contains(ops, "`"+name+"`") {
			t.Errorf("foldsvc metric family %s is not documented in docs/OPERATIONS.md", name)
		}
	}
}
