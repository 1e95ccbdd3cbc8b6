// Command benchjson converts `go test -bench` output into a
// machine-readable benchmark-trajectory snapshot, so successive PRs can
// diff performance (ns/op, B/op, allocs/op per benchmark) instead of
// eyeballing terminal scrollback.
//
// It reads the benchmark text from stdin, echoes it to stderr (so a
// piped run stays watchable), and writes a JSON file:
//
//	go test -run '^$' -bench . -benchmem | benchjson -out BENCH_2026-08-05.json
//
// Result lines that share a name and GOMAXPROCS (go test -count N)
// collapse into one entry holding the median of each column and the run
// count, so a single slow run on a noisy machine moves nothing; an entry
// of a snapshot recorded from one run per benchmark is its own median.
//
// After writing, it diffs the new entries against the most recent prior
// BENCH_<date>.json with the same name prefix in the output directory
// (override with -prev, disable with -prev none) and prints the
// per-benchmark trajectory to stderr. A snapshot recorded later on a day
// that already has one is named with an ordinal, BENCH_<date>.2.json,
// and orders after the day's plain <date>.json.
//
// The snapshot records the runner (goos/goarch/CPU count/CPU model/go
// version) because ns/op from a 1-core container and a 64-core server
// are not comparable; trajectory tooling should group by runner
// fingerprint. The CPU model comes from the `cpu:` header that `go test
// -bench` prints, so it reflects the machine the benchmarks actually ran
// on even when benchjson itself runs elsewhere.
//
// With -gate, benchjson is a regression gate: any benchmark whose
// (median) ns/op or B/op worsened by more than -tol percent against the
// prior snapshot makes it exit nonzero. Standalone gate mode takes an
// existing snapshot instead of stdin —
//
//	benchjson -gate -tol 10 -cur newest
//
// — loading the newest <prefix><date>.json in -dir and comparing it with
// its predecessor. The gate skips (exit 0, with a notice) when either
// snapshot is missing or the runner fingerprints differ — including the
// CPU model, since a container rescheduled onto a different host makes
// every ns/op delta meaningless, and the workload scale (-scale,
// mirroring BENCH_SCALE) when both snapshots record one — so fresh
// checkouts and machine moves don't fail `make check`.
//
// With -merge, new entries fold into an existing -out snapshot instead
// of overwriting it — matching name@procs entries are replaced, new ones
// appended — so a follow-up run of gated benchmarks (e.g. the
// BENCH_SCALE=large tier) can ride in the day's snapshot:
//
//	BENCH_SCALE=large go test -run '^$' -bench AnalyzeSharded -benchmem \
//	    | benchjson -merge -out BENCH_2026-08-08.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Entry is one benchmark's result: one result line, or the medians of
// the lines of several runs (see collapse).
type Entry struct {
	// Name is the benchmark name without the -P GOMAXPROCS suffix.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the benchmark ran at (the -N suffix; 1 when
	// absent).
	Procs int `json:"procs"`
	// Iterations is b.N for the recorded timing.
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// MBPerS, BytesPerOp and AllocsPerOp are present only when the run
	// reported them (-benchmem, b.SetBytes).
	MBPerS      *float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  *int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64   `json:"allocs_per_op,omitempty"`
	// Runs is the number of result lines the entry is the median of;
	// absent for one.
	Runs int `json:"runs,omitempty"`
}

// collapse merges the entries that share a name and GOMAXPROCS, in order
// of first appearance, into one entry each: the median of every column
// (the mean of the middle two for an even count) and the run count.
// A column reported by only some of the runs takes the median of those.
func collapse(entries []Entry) []Entry {
	entryKey := func(e Entry) string { return fmt.Sprintf("%s@%d", e.Name, e.Procs) }
	groups := map[string][]Entry{}
	var order []string
	for _, e := range entries {
		k := entryKey(e)
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], e)
	}
	out := make([]Entry, 0, len(order))
	for _, k := range order {
		g := groups[k]
		if len(g) == 1 {
			out = append(out, g[0])
			continue
		}
		var iters, ns, mbs, bytes, allocs []float64
		for _, e := range g {
			iters = append(iters, float64(e.Iterations))
			ns = append(ns, e.NsPerOp)
			if e.MBPerS != nil {
				mbs = append(mbs, *e.MBPerS)
			}
			if e.BytesPerOp != nil {
				bytes = append(bytes, float64(*e.BytesPerOp))
			}
			if e.AllocsPerOp != nil {
				allocs = append(allocs, float64(*e.AllocsPerOp))
			}
		}
		m := Entry{Name: g[0].Name, Procs: g[0].Procs, Runs: len(g),
			Iterations: int64(median(iters)), NsPerOp: median(ns)}
		if len(mbs) > 0 {
			v := median(mbs)
			m.MBPerS = &v
		}
		if len(bytes) > 0 {
			v := int64(median(bytes))
			m.BytesPerOp = &v
		}
		if len(allocs) > 0 {
			v := int64(median(allocs))
			m.AllocsPerOp = &v
		}
		out = append(out, m)
	}
	return out
}

// median returns the median of xs (non-empty), sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// Snapshot is the full trajectory record for one benchmark run.
type Snapshot struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// CPU is the processor model from the `cpu:` header of the bench
	// output (empty for snapshots that predate its recording).
	CPU string `json:"cpu,omitempty"`
	// Scale is the workload scale the benchmarks ran at (the -scale flag,
	// mirroring BENCH_SCALE; empty for default-scale runs and for
	// snapshots that predate its recording). Part of the gate fingerprint:
	// two snapshots with different non-empty scales are not comparable.
	Scale      string  `json:"scale,omitempty"`
	Benchmarks []Entry `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkFold-8   100   12345678 ns/op   54.21 MB/s   2345 B/op   67 allocs/op
//
// capturing the "value unit" pairs after ns/op whole: go test prints
// b.ReportMetric units among them, so they are parsed in any order.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([\d.]+) ns/op((?:\s+\S+\s+\S+)*)`)

// parseLine extracts a benchmark Entry from one line of `go test -bench`
// output; ok is false for non-benchmark lines (headers, PASS, pkg path).
func parseLine(line string) (Entry, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return Entry{}, false
	}
	e := Entry{Name: m[1], Procs: 1}
	if m[2] != "" {
		e.Procs, _ = strconv.Atoi(m[2])
	}
	e.Iterations, _ = strconv.ParseInt(m[3], 10, 64)
	e.NsPerOp, _ = strconv.ParseFloat(m[4], 64)
	pairs := strings.Fields(m[5])
	for i := 0; i+1 < len(pairs); i += 2 {
		val, unit := pairs[i], pairs[i+1]
		switch unit {
		case "MB/s":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				e.MBPerS = &v
			}
		case "B/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				e.BytesPerOp = &v
			}
		case "allocs/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				e.AllocsPerOp = &v
			}
		}
	}
	return e, true
}

// cpuLine matches the `cpu: <model>` header go test prints before the
// benchmark lines.
var cpuLine = regexp.MustCompile(`^cpu: (.+)$`)

// snapName matches the snapshot naming scheme, capturing the free-form
// prefix, the ISO date and an optional same-day ordinal:
// BENCH_2026-08-05.json → ("BENCH_", "2026-08-05", ""), and a later
// snapshot recorded the same day, BENCH_2026-08-05.2.json → ("BENCH_",
// "2026-08-05", "2").
var snapName = regexp.MustCompile(`^(.*?)(\d{4}-\d{2}-\d{2})(?:\.(\d{1,6}))?\.json$`)

// snapKey orders the names snapName matched: by date, then by ordinal,
// the plain <date>.json being the day's first. ISO dates and zero-padded
// ordinals sort lexicographically, so "older" and "most recent" are
// plain string comparisons.
func snapKey(m []string) string {
	ord := m[3]
	if ord == "" {
		ord = "1"
	}
	return m[2] + "." + strings.Repeat("0", 6-len(ord)) + ord
}

// findPrev locates the most recent snapshot older than outPath that
// follows the same <prefix><YYYY-MM-DD>[.N].json naming scheme in the
// same directory. Returns "" when outPath doesn't follow the scheme or
// no prior snapshot exists.
func findPrev(outPath string) string {
	m := snapName.FindStringSubmatch(filepath.Base(outPath))
	if m == nil {
		return ""
	}
	prefix, key := m[1], snapKey(m)
	dir := filepath.Dir(outPath)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return ""
	}
	best, bestKey := "", ""
	for _, e := range entries {
		em := snapName.FindStringSubmatch(e.Name())
		if em == nil || em[1] != prefix || snapKey(em) >= key {
			continue
		}
		if k := snapKey(em); best == "" || k > bestKey {
			best, bestKey = e.Name(), k
		}
	}
	if best == "" {
		return ""
	}
	return filepath.Join(dir, best)
}

// newestSnap returns the path of the newest <prefix><YYYY-MM-DD>[.N].json
// in dir, or "" when none exists.
func newestSnap(dir, prefix string) string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return ""
	}
	best, bestKey := "", ""
	for _, e := range entries {
		m := snapName.FindStringSubmatch(e.Name())
		if m == nil || m[1] != prefix {
			continue
		}
		if k := snapKey(m); best == "" || k > bestKey {
			best, bestKey = e.Name(), k
		}
	}
	if best == "" {
		return ""
	}
	return filepath.Join(dir, best)
}

// gateCheck compares cur against prev and returns one line per benchmark
// whose ns/op or B/op regressed by more than tol percent. Benchmarks are
// matched by name and GOMAXPROCS; unmatched entries never fail the gate
// (new benchmarks have no baseline). Metrics with a zero or missing
// baseline are skipped — a percentage against zero is meaningless.
func gateCheck(prev, cur *Snapshot, tol float64) []string {
	entryKey := func(e Entry) string { return fmt.Sprintf("%s@%d", e.Name, e.Procs) }
	prevBy := make(map[string]Entry, len(prev.Benchmarks))
	for _, e := range prev.Benchmarks {
		prevBy[entryKey(e)] = e
	}
	var out []string
	for _, e := range cur.Benchmarks {
		p, ok := prevBy[entryKey(e)]
		if !ok {
			continue
		}
		if p.NsPerOp > 0 {
			if pct := 100 * (e.NsPerOp - p.NsPerOp) / p.NsPerOp; pct > tol {
				out = append(out, fmt.Sprintf("  %s: ns/op %+.1f%% (%.0f -> %.0f)",
					entryKey(e), pct, p.NsPerOp, e.NsPerOp))
			}
		}
		if e.BytesPerOp != nil && p.BytesPerOp != nil && *p.BytesPerOp > 0 {
			if pct := 100 * float64(*e.BytesPerOp-*p.BytesPerOp) / float64(*p.BytesPerOp); pct > tol {
				out = append(out, fmt.Sprintf("  %s: B/op %+.1f%% (%d -> %d)",
					entryKey(e), pct, *p.BytesPerOp, *e.BytesPerOp))
			}
		}
	}
	sort.Strings(out)
	return out
}

// runGate applies gateCheck between two loaded snapshots and reports the
// verdict; it returns the process exit code.
func runGate(prevPath, curPath string, prev, cur *Snapshot, tol float64) int {
	if prev.NumCPU != cur.NumCPU || prev.GOARCH != cur.GOARCH || prev.CPU != cur.CPU {
		fmt.Fprintf(os.Stderr,
			"benchjson: gate skipped: runner fingerprint changed (%s/%d CPU/%q -> %s/%d CPU/%q)\n",
			prev.GOARCH, prev.NumCPU, prev.CPU, cur.GOARCH, cur.NumCPU, cur.CPU)
		return 0
	}
	// A scale change means different workloads behind the same benchmark
	// names; an empty side (default scale, or a snapshot predating the
	// field) stays comparable so legacy snapshots keep gating.
	if prev.Scale != "" && cur.Scale != "" && prev.Scale != cur.Scale {
		fmt.Fprintf(os.Stderr,
			"benchjson: gate skipped: workload scale changed (%q -> %q)\n", prev.Scale, cur.Scale)
		return 0
	}
	offenders := gateCheck(prev, cur, tol)
	if len(offenders) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: gate FAILED: %d regression(s) > %.0f%% vs %s:\n",
			len(offenders), tol, prevPath)
		for _, l := range offenders {
			fmt.Fprintln(os.Stderr, l)
		}
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchjson: gate passed: %s within %.0f%% of %s\n",
		curPath, tol, prevPath)
	return 0
}

// gateStandalone is the -gate -cur mode: load an existing snapshot (or
// the newest one) and gate it against its predecessor, with graceful
// skips when there is nothing to compare.
func gateStandalone(curArg, dir, prefix string, tol float64) int {
	curPath := curArg
	if curArg == "newest" {
		curPath = newestSnap(dir, prefix)
		if curPath == "" {
			fmt.Fprintf(os.Stderr, "benchjson: gate skipped: no %s<date>.json in %s\n", prefix, dir)
			return 0
		}
	}
	cur, err := readSnapshot(curPath)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "benchjson: gate skipped: %s does not exist\n", curPath)
			return 0
		}
		fatal(err)
	}
	prevPath := findPrev(curPath)
	if prevPath == "" {
		fmt.Fprintf(os.Stderr, "benchjson: gate skipped: no snapshot older than %s\n", curPath)
		return 0
	}
	prev, err := readSnapshot(prevPath)
	if err != nil {
		fatal(err)
	}
	return runGate(prevPath, curPath, prev, cur, tol)
}

// diffLines renders the per-benchmark trajectory between two snapshots:
// new ns/op against prior ns/op (with relative change) and B/op when
// both runs recorded allocations. Benchmarks are matched by name and
// GOMAXPROCS; entries only in prev are dropped, entries only in cur are
// marked new.
func diffLines(prev, cur *Snapshot) []string {
	entryKey := func(e Entry) string { return fmt.Sprintf("%s@%d", e.Name, e.Procs) }
	prevBy := make(map[string]Entry, len(prev.Benchmarks))
	for _, e := range prev.Benchmarks {
		prevBy[entryKey(e)] = e
	}
	var lines []string
	for _, e := range cur.Benchmarks {
		p, ok := prevBy[entryKey(e)]
		if !ok {
			lines = append(lines, fmt.Sprintf("  %-48s %14.0f ns/op  (new)", e.Name, e.NsPerOp))
			continue
		}
		l := fmt.Sprintf("  %-48s %14.0f ns/op  (was %.0f", e.Name, e.NsPerOp, p.NsPerOp)
		if p.NsPerOp > 0 {
			l += fmt.Sprintf(", %+.1f%%", 100*(e.NsPerOp-p.NsPerOp)/p.NsPerOp)
		}
		l += ")"
		if e.BytesPerOp != nil && p.BytesPerOp != nil {
			l += fmt.Sprintf("  %d B/op (was %d)", *e.BytesPerOp, *p.BytesPerOp)
		}
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return lines
}

// mergeInto folds the fresh entries into the snapshot already at path:
// matching name@procs entries are replaced, new ones appended, the rest
// kept. The merged snapshot keeps the existing file's recorded scale —
// riders from a different scale (e.g. BENCH_SCALE=large-only benchmarks
// joining a default-scale snapshot) must not re-label entries they did
// not measure. A missing file degrades to a plain write; a runner
// fingerprint mismatch is an error, since mixing machines in one
// snapshot would poison every later gate comparison.
func mergeInto(path string, fresh *Snapshot) (*Snapshot, error) {
	base, err := readSnapshot(path)
	if os.IsNotExist(err) {
		return fresh, nil
	}
	if err != nil {
		return nil, err
	}
	if base.NumCPU != fresh.NumCPU || base.GOARCH != fresh.GOARCH ||
		(base.CPU != "" && fresh.CPU != "" && base.CPU != fresh.CPU) {
		return nil, fmt.Errorf(
			"cannot merge into %s: runner fingerprint differs (%s/%d CPU/%q vs %s/%d CPU/%q)",
			path, base.GOARCH, base.NumCPU, base.CPU, fresh.GOARCH, fresh.NumCPU, fresh.CPU)
	}
	entryKey := func(e Entry) string { return fmt.Sprintf("%s@%d", e.Name, e.Procs) }
	incoming := make(map[string]Entry, len(fresh.Benchmarks))
	for _, e := range fresh.Benchmarks {
		incoming[entryKey(e)] = e
	}
	merged := *base
	merged.Date = fresh.Date
	merged.Benchmarks = make([]Entry, 0, len(base.Benchmarks)+len(fresh.Benchmarks))
	for _, e := range base.Benchmarks {
		if ne, ok := incoming[entryKey(e)]; ok {
			e = ne
			delete(incoming, entryKey(e))
		}
		merged.Benchmarks = append(merged.Benchmarks, e)
	}
	// Append the genuinely new entries in their measured order.
	for _, e := range fresh.Benchmarks {
		if _, ok := incoming[entryKey(e)]; ok {
			merged.Benchmarks = append(merged.Benchmarks, e)
		}
	}
	return &merged, nil
}

// readSnapshot loads a prior trajectory snapshot.
func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func main() {
	out := flag.String("out", "",
		"output JSON path (default BENCH_<today>.json)")
	prev := flag.String("prev", "",
		"prior snapshot to diff against (default: newest older BENCH_<date>.json beside -out; \"none\" disables)")
	gate := flag.Bool("gate", false,
		"fail (exit 1) when any benchmark regresses more than -tol percent vs the prior snapshot")
	tol := flag.Float64("tol", 10,
		"regression tolerance for -gate, in percent of ns/op or B/op")
	cur := flag.String("cur", "",
		"standalone gate mode: gate this existing snapshot (\"newest\" picks the newest -prefix file in -dir) instead of reading stdin")
	dir := flag.String("dir", ".",
		"directory searched by -cur newest")
	prefix := flag.String("prefix", "BENCH_",
		"snapshot filename prefix matched by -cur newest")
	merge := flag.Bool("merge", false,
		"fold the new entries into an existing -out snapshot (matched by name and GOMAXPROCS) instead of overwriting it; the runner fingerprint must match")
	scale := flag.String("scale", os.Getenv("BENCH_SCALE"),
		"workload scale recorded in the snapshot's gate fingerprint (default $BENCH_SCALE)")
	flag.Parse()
	if *cur != "" {
		os.Exit(gateStandalone(*cur, *dir, *prefix, *tol))
	}
	if *out == "" {
		*out = fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
	}

	snap := Snapshot{
		Date:      time.Now().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Scale:     *scale,
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		if m := cpuLine.FindStringSubmatch(line); m != nil {
			snap.CPU = m[1]
		}
		if e, ok := parseLine(line); ok {
			snap.Benchmarks = append(snap.Benchmarks, e)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(snap.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin (pipe `go test -bench` output in)"))
	}
	snap.Benchmarks = collapse(snap.Benchmarks)
	if *merge {
		merged, err := mergeInto(*out, &snap)
		if err != nil {
			fatal(err)
		}
		snap = *merged
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&snap); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(snap.Benchmarks), *out)

	prevPath := *prev
	if prevPath == "" {
		prevPath = findPrev(*out)
	}
	if prevPath == "" || prevPath == "none" {
		return
	}
	prevSnap, err := readSnapshot(prevPath)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: trajectory vs %s (%s, %d CPU):\n",
		prevPath, prevSnap.GoVersion, prevSnap.NumCPU)
	if prevSnap.NumCPU != snap.NumCPU || prevSnap.GOARCH != snap.GOARCH || prevSnap.CPU != snap.CPU {
		fmt.Fprintln(os.Stderr, "benchjson: warning: runner fingerprint differs — deltas are not apples-to-apples")
	}
	for _, l := range diffLines(prevSnap, &snap) {
		fmt.Fprintln(os.Stderr, l)
	}
	if *gate {
		os.Exit(runGate(prevPath, *out, prevSnap, &snap, *tol))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
