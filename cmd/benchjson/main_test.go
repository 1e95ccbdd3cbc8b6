package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestParseLineFull(t *testing.T) {
	e, ok := parseLine("BenchmarkFold-8   \t     100\t  12345678 ns/op\t  54.21 MB/s\t  2345 B/op\t   67 allocs/op")
	if !ok {
		t.Fatal("full line not parsed")
	}
	if e.Name != "BenchmarkFold" || e.Procs != 8 || e.Iterations != 100 || e.NsPerOp != 12345678 {
		t.Fatalf("parsed %+v", e)
	}
	if e.MBPerS == nil || *e.MBPerS != 54.21 {
		t.Fatalf("MB/s = %v", e.MBPerS)
	}
	if e.BytesPerOp == nil || *e.BytesPerOp != 2345 {
		t.Fatalf("B/op = %v", e.BytesPerOp)
	}
	if e.AllocsPerOp == nil || *e.AllocsPerOp != 67 {
		t.Fatalf("allocs/op = %v", e.AllocsPerOp)
	}
}

func TestParseLineMinimal(t *testing.T) {
	// No -P suffix (GOMAXPROCS=1 runs omit it), no -benchmem columns,
	// fractional ns/op.
	e, ok := parseLine("BenchmarkSilhouette \t    5\t 240531872.4 ns/op")
	if !ok {
		t.Fatal("minimal line not parsed")
	}
	if e.Name != "BenchmarkSilhouette" || e.Procs != 1 || e.Iterations != 5 {
		t.Fatalf("parsed %+v", e)
	}
	if e.NsPerOp != 240531872.4 {
		t.Fatalf("ns/op = %g", e.NsPerOp)
	}
	if e.MBPerS != nil || e.BytesPerOp != nil || e.AllocsPerOp != nil {
		t.Fatalf("optional columns invented: %+v", e)
	}
}

func TestParseLineCustomMetric(t *testing.T) {
	// b.ReportMetric units print between ns/op and the -benchmem
	// columns; the gated columns must still be found, in any order.
	for _, line := range []string{
		"BenchmarkFoldFine-8 \t 3\t 123456789 ns/op\t 766440 points/op\t 2345 B/op\t 67 allocs/op",
		"BenchmarkFoldFine-8 \t 3\t 123456789 ns/op\t 54.21 MB/s\t 2345 B/op\t 1.5e+06 fit-ns/op\t 67 allocs/op",
	} {
		e, ok := parseLine(line)
		if !ok {
			t.Fatalf("line not parsed: %q", line)
		}
		if e.Name != "BenchmarkFoldFine" || e.Procs != 8 || e.Iterations != 3 || e.NsPerOp != 123456789 {
			t.Fatalf("parsed %+v", e)
		}
		if e.BytesPerOp == nil || *e.BytesPerOp != 2345 {
			t.Fatalf("%q: B/op = %v", line, e.BytesPerOp)
		}
		if e.AllocsPerOp == nil || *e.AllocsPerOp != 67 {
			t.Fatalf("%q: allocs/op = %v", line, e.AllocsPerOp)
		}
	}
}

func TestParseLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"pkg: repro",
		"PASS",
		"ok  \trepro\t12.3s",
		"",
		"--- BENCH: BenchmarkFold-8",
	} {
		if _, ok := parseLine(line); ok {
			t.Fatalf("noise line parsed as benchmark: %q", line)
		}
	}
}

func TestFindPrev(t *testing.T) {
	dir := t.TempDir()
	touch := func(name string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out := filepath.Join(dir, "BENCH_2026-08-06.json")

	// No candidates yet.
	if got := findPrev(out); got != "" {
		t.Fatalf("empty dir: findPrev = %q, want \"\"", got)
	}
	// Picks the newest strictly-older snapshot with the same prefix; the
	// out file itself, newer dates, other prefixes and non-scheme names
	// are all ignored.
	touch("BENCH_2026-08-01.json")
	touch("BENCH_2026-08-05.json")
	touch("BENCH_2026-08-06.json")
	touch("BENCH_2026-08-07.json")
	touch("OTHER_2026-08-05.json")
	touch("notes.json")
	if got := findPrev(out); got != filepath.Join(dir, "BENCH_2026-08-05.json") {
		t.Fatalf("findPrev = %q", got)
	}
	// An out path outside the naming scheme has no trajectory.
	if got := findPrev(filepath.Join(dir, "results.json")); got != "" {
		t.Fatalf("non-scheme out: findPrev = %q, want \"\"", got)
	}
	// Same-day ordinals order after the day's plain snapshot, numerically.
	touch("BENCH_2026-08-06.2.json")
	touch("BENCH_2026-08-06.10.json")
	if got := findPrev(filepath.Join(dir, "BENCH_2026-08-06.2.json")); got != out {
		t.Fatalf("ordinal 2: findPrev = %q, want %q", got, out)
	}
	if got := findPrev(filepath.Join(dir, "BENCH_2026-08-06.10.json")); got != filepath.Join(dir, "BENCH_2026-08-06.2.json") {
		t.Fatalf("ordinal 10: findPrev = %q", got)
	}
	if got := findPrev(filepath.Join(dir, "BENCH_2026-08-07.json")); got != filepath.Join(dir, "BENCH_2026-08-06.10.json") {
		t.Fatalf("next day: findPrev = %q", got)
	}
	if got := newestSnap(dir, "BENCH_"); got != filepath.Join(dir, "BENCH_2026-08-07.json") {
		t.Fatalf("newestSnap = %q", got)
	}
}

func TestDiffLines(t *testing.T) {
	i64 := func(v int64) *int64 { return &v }
	prev := &Snapshot{Benchmarks: []Entry{
		{Name: "BenchmarkAutoEps/kd-10k", Procs: 1, NsPerOp: 2e8, BytesPerOp: i64(4096)},
		{Name: "BenchmarkGone", Procs: 1, NsPerOp: 5},
	}}
	cur := &Snapshot{Benchmarks: []Entry{
		{Name: "BenchmarkAutoEps/kd-10k", Procs: 1, NsPerOp: 1e8, BytesPerOp: i64(0)},
		{Name: "BenchmarkDBSCANIndex/10k", Procs: 1, NsPerOp: 3e6},
	}}
	lines := diffLines(prev, cur)
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %v", len(lines), lines)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "-50.0%") {
		t.Fatalf("halved ns/op not reported as -50.0%%:\n%s", joined)
	}
	if !strings.Contains(joined, "0 B/op (was 4096)") {
		t.Fatalf("B/op delta missing:\n%s", joined)
	}
	if !strings.Contains(joined, "BenchmarkDBSCANIndex/10k") || !strings.Contains(joined, "(new)") {
		t.Fatalf("new benchmark not marked:\n%s", joined)
	}
	if strings.Contains(joined, "BenchmarkGone") {
		t.Fatalf("removed benchmark leaked into diff:\n%s", joined)
	}
}

func TestDiffLinesZeroBaseline(t *testing.T) {
	// A zero prior ns/op must not divide by zero.
	prev := &Snapshot{Benchmarks: []Entry{{Name: "BenchmarkX", Procs: 1, NsPerOp: 0}}}
	cur := &Snapshot{Benchmarks: []Entry{{Name: "BenchmarkX", Procs: 1, NsPerOp: 10}}}
	lines := diffLines(prev, cur)
	if len(lines) != 1 || strings.Contains(lines[0], "%") {
		t.Fatalf("zero baseline mishandled: %v", lines)
	}
}

func TestGateCheck(t *testing.T) {
	i64 := func(v int64) *int64 { return &v }
	prev := &Snapshot{Benchmarks: []Entry{
		{Name: "BenchmarkStable", Procs: 1, NsPerOp: 100, BytesPerOp: i64(1000)},
		{Name: "BenchmarkSlower", Procs: 1, NsPerOp: 100},
		{Name: "BenchmarkFatter", Procs: 4, NsPerOp: 100, BytesPerOp: i64(1000)},
		{Name: "BenchmarkZeroBase", Procs: 1, NsPerOp: 0, BytesPerOp: i64(0)},
		{Name: "BenchmarkGone", Procs: 1, NsPerOp: 1},
	}}
	cur := &Snapshot{Benchmarks: []Entry{
		// Within tolerance (+9% ns/op, −10% B/op) — must pass.
		{Name: "BenchmarkStable", Procs: 1, NsPerOp: 109, BytesPerOp: i64(900)},
		// +25% ns/op — offender.
		{Name: "BenchmarkSlower", Procs: 1, NsPerOp: 125},
		// ns/op flat, +50% B/op — offender.
		{Name: "BenchmarkFatter", Procs: 4, NsPerOp: 100, BytesPerOp: i64(1500)},
		// Zero baselines never divide.
		{Name: "BenchmarkZeroBase", Procs: 1, NsPerOp: 50, BytesPerOp: i64(64)},
		// No baseline at all — new benchmarks never fail the gate.
		{Name: "BenchmarkNew", Procs: 1, NsPerOp: 1e9},
	}}
	got := gateCheck(prev, cur, 10)
	if len(got) != 2 {
		t.Fatalf("got %d offenders: %v", len(got), got)
	}
	joined := strings.Join(got, "\n")
	if !strings.Contains(joined, "BenchmarkSlower@1: ns/op +25.0%") {
		t.Errorf("ns/op regression missing:\n%s", joined)
	}
	if !strings.Contains(joined, "BenchmarkFatter@4: B/op +50.0%") {
		t.Errorf("B/op regression missing:\n%s", joined)
	}
	if strings.Contains(joined, "Stable") || strings.Contains(joined, "ZeroBase") || strings.Contains(joined, "New") {
		t.Errorf("false offender:\n%s", joined)
	}

	// A looser tolerance clears everything.
	if got := gateCheck(prev, cur, 60); len(got) != 0 {
		t.Fatalf("tol=60 still flags: %v", got)
	}
}

func TestGateStandalone(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The fingerprint must match the test runner for the gate to engage.
	fp := func(bench string) string {
		return `{"goarch":"` + runtime.GOARCH + `","num_cpu":` + strconv.Itoa(runtime.NumCPU()) +
			`,"benchmarks":[` + bench + `]}`
	}

	// No snapshots at all: skip, exit 0.
	if code := gateStandalone("newest", dir, "BENCH_", 10); code != 0 {
		t.Fatalf("empty dir: exit %d, want 0", code)
	}
	// One snapshot, no predecessor: skip.
	write("BENCH_2026-08-07.json", fp(`{"name":"BenchmarkX","procs":1,"ns_per_op":100}`))
	if code := gateStandalone("newest", dir, "BENCH_", 10); code != 0 {
		t.Fatalf("no predecessor: exit %d, want 0", code)
	}
	// A newer snapshot that regressed 50%: gate fails.
	write("BENCH_2026-08-08.json", fp(`{"name":"BenchmarkX","procs":1,"ns_per_op":150}`))
	if code := gateStandalone("newest", dir, "BENCH_", 10); code != 1 {
		t.Fatalf("regression: exit %d, want 1", code)
	}
	// The same pair under a 60% tolerance passes.
	if code := gateStandalone("newest", dir, "BENCH_", 60); code != 0 {
		t.Fatalf("tol=60: exit %d, want 0", code)
	}
	// A fingerprint change (different CPU count) skips the gate.
	write("BENCH_2026-08-09.json",
		`{"goarch":"`+runtime.GOARCH+`","num_cpu":`+strconv.Itoa(runtime.NumCPU()+7)+
			`,"benchmarks":[{"name":"BenchmarkX","procs":1,"ns_per_op":900}]}`)
	if code := gateStandalone("newest", dir, "BENCH_", 10); code != 0 {
		t.Fatalf("fingerprint change: exit %d, want 0", code)
	}
	// A CPU-model change alone (the container landing on a different
	// host) also skips — including against a predecessor that predates
	// cpu recording entirely.
	write("BENCH_2026-08-10.json",
		`{"goarch":"`+runtime.GOARCH+`","num_cpu":`+strconv.Itoa(runtime.NumCPU()+7)+
			`,"cpu":"Intel(R) Xeon(R) Processor @ 2.70GHz","benchmarks":[{"name":"BenchmarkX","procs":1,"ns_per_op":9000}]}`)
	if code := gateStandalone("newest", dir, "BENCH_", 10); code != 0 {
		t.Fatalf("cpu model change: exit %d, want 0", code)
	}
	// An explicit missing -cur path skips rather than erroring.
	if code := gateStandalone(filepath.Join(dir, "BENCH_2031-01-01.json"), dir, "BENCH_", 10); code != 0 {
		t.Fatalf("missing cur: exit %d, want 0", code)
	}
}

func TestGateSkipsScaleChange(t *testing.T) {
	dir := t.TempDir()
	write := func(name, scale, ns string) {
		t.Helper()
		body := `{"goarch":"` + runtime.GOARCH + `","num_cpu":` + strconv.Itoa(runtime.NumCPU()) +
			`,"scale":"` + scale + `","benchmarks":[{"name":"BenchmarkX","procs":1,"ns_per_op":` + ns + `}]}`
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Different non-empty scales: the same benchmark name measures a
	// different workload, so a 10x "regression" must skip, not fail.
	write("BENCH_2026-08-07.json", "", "100")
	write("BENCH_2026-08-08.json", "large", "1000")
	write("BENCH_2026-08-09.json", "small", "100")
	if code := gateStandalone(filepath.Join(dir, "BENCH_2026-08-09.json"), dir, "BENCH_", 10); code != 0 {
		t.Fatalf("scale change: exit %d, want 0", code)
	}
	// An empty side stays comparable — legacy snapshots keep gating.
	if code := gateStandalone(filepath.Join(dir, "BENCH_2026-08-08.json"), dir, "BENCH_", 10); code != 1 {
		t.Fatalf("empty-scale baseline: exit %d, want 1 (regression must still gate)", code)
	}
}

func TestMergeInto(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_2026-08-08.json")
	fresh := &Snapshot{
		Date:   "2026-08-08T12:00:00Z",
		GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
		Scale:  "large",
		Benchmarks: []Entry{
			{Name: "BenchmarkShared", Procs: 1, NsPerOp: 50},
			{Name: "BenchmarkRider", Procs: 1, NsPerOp: 7},
		},
	}

	// Missing file: merge degrades to a plain write of the fresh snapshot.
	got, err := mergeInto(path, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if got != fresh {
		t.Fatal("missing base should pass the fresh snapshot through")
	}

	base := `{"date":"2026-08-08T10:00:00Z","goarch":"` + runtime.GOARCH +
		`","num_cpu":` + strconv.Itoa(runtime.NumCPU()) + `,"benchmarks":[` +
		`{"name":"BenchmarkShared","procs":1,"ns_per_op":100},` +
		`{"name":"BenchmarkKeep","procs":1,"ns_per_op":3}]}`
	if err := os.WriteFile(path, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = mergeInto(path, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != 3 {
		t.Fatalf("merged %d entries, want 3: %+v", len(got.Benchmarks), got.Benchmarks)
	}
	byName := map[string]float64{}
	for _, e := range got.Benchmarks {
		byName[e.Name] = e.NsPerOp
	}
	if byName["BenchmarkShared"] != 50 {
		t.Errorf("shared entry not replaced: %v", byName["BenchmarkShared"])
	}
	if byName["BenchmarkKeep"] != 3 || byName["BenchmarkRider"] != 7 {
		t.Errorf("kept/appended entries wrong: %v", byName)
	}
	if got.Scale != "" {
		t.Errorf("merge re-labeled the base snapshot's scale to %q", got.Scale)
	}
	if got.Date != fresh.Date {
		t.Errorf("merge kept the stale date %q", got.Date)
	}

	// A different runner must refuse to merge.
	alien := *fresh
	alien.NumCPU = fresh.NumCPU + 7
	if _, err := mergeInto(path, &alien); err == nil {
		t.Fatal("merged across a runner fingerprint change")
	}
}

func TestParseLineSubBenchmark(t *testing.T) {
	e, ok := parseLine("BenchmarkAnalyzePipeline/ranks=16-4         \t      10\t 103456789 ns/op")
	if !ok {
		t.Fatal("sub-benchmark not parsed")
	}
	if e.Name != "BenchmarkAnalyzePipeline/ranks=16" || e.Procs != 4 {
		t.Fatalf("parsed %+v", e)
	}
}

func TestCollapseMedians(t *testing.T) {
	var entries []Entry
	for _, l := range []string{
		"BenchmarkA-2 \t 10\t 300 ns/op\t 30 B/op\t 3 allocs/op",
		"BenchmarkB-2 \t 5\t 7 ns/op",
		"BenchmarkA-2 \t 12\t 100 ns/op\t 10 B/op\t 1 allocs/op",
		"BenchmarkA-2 \t 11\t 200 ns/op\t 20 B/op\t 2 allocs/op",
		"BenchmarkC-2 \t 1\t 10 ns/op\t 1.5 MB/s\t 8 B/op\t 1 allocs/op",
		"BenchmarkC-2 \t 1\t 40 ns/op\t 4.5 MB/s\t 100 B/op\t 3 allocs/op",
		"BenchmarkA-4 \t 1\t 9 ns/op",
	} {
		e, ok := parseLine(l)
		if !ok {
			t.Fatalf("not parsed: %q", l)
		}
		entries = append(entries, e)
	}
	got := collapse(entries)
	if len(got) != 4 {
		t.Fatalf("%d entries, want 4: %+v", len(got), got)
	}
	// First-appearance order; GOMAXPROCS keeps runs apart.
	for i, want := range []string{"BenchmarkA@2", "BenchmarkB@2", "BenchmarkC@2", "BenchmarkA@4"} {
		if k := got[i].Name + "@" + strconv.Itoa(got[i].Procs); k != want {
			t.Fatalf("entry %d is %s, want %s", i, k, want)
		}
	}
	a := got[0] // odd count: the middle run of each column
	if a.Runs != 3 || a.Iterations != 11 || a.NsPerOp != 200 || *a.BytesPerOp != 20 || *a.AllocsPerOp != 2 || a.MBPerS != nil {
		t.Fatalf("odd-count median %+v", a)
	}
	c := got[2] // even count: the mean of the middle two
	if c.Runs != 2 || c.NsPerOp != 25 || *c.MBPerS != 3 || *c.BytesPerOp != 54 || *c.AllocsPerOp != 2 {
		t.Fatalf("even-count median %+v", c)
	}
	// A single run stays as parsed, with no run count recorded.
	if b := got[1]; b.Runs != 0 || b.NsPerOp != 7 || b.Iterations != 5 {
		t.Fatalf("single run %+v", b)
	}
}

// TestGateMedianOfRuns: one slow run of three, which failed a gate that
// compared one run per benchmark, passes on the median; a regression in
// every run still fails.
func TestGateMedianOfRuns(t *testing.T) {
	snap := func(ns ...float64) *Snapshot {
		var es []Entry
		for _, v := range ns {
			b := int64(1000)
			es = append(es, Entry{Name: "BenchmarkX", Procs: 2, Iterations: 10, NsPerOp: v, BytesPerOp: &b})
		}
		return &Snapshot{Benchmarks: collapse(es)}
	}
	prev := snap(100, 98, 103)
	if off := gateCheck(prev, snap(150), 10); len(off) != 1 {
		t.Fatalf("the slow run alone: %v, want one offender", off)
	}
	if off := gateCheck(prev, snap(101, 150, 99), 10); len(off) != 0 {
		t.Fatalf("one slow run of three failed the gate: %v", off)
	}
	if off := gateCheck(prev, snap(121, 125, 119), 10); len(off) != 1 {
		t.Fatalf("a regression in every run: %v, want one offender", off)
	}
	// A one-run snapshot of the past stays comparable with a median.
	if off := gateCheck(snap(100), snap(101, 150, 99), 10); len(off) != 0 {
		t.Fatalf("median against a single-run baseline: %v", off)
	}
}
