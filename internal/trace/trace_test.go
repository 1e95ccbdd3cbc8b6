package trace

import (
	"bytes"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/counters"
)

// buildSmallTrace assembles a tiny but fully featured trace used by
// several tests.
func buildSmallTrace(t *testing.T) *Trace {
	t.Helper()
	b := NewBuilder("unit", 2)
	b.SetSamplePeriod(1000)
	b.SetSeed(42)
	b.SetParam("iters", "3")
	rMain := b.Region("main")
	rSolve := b.Region("solve")

	b.Event(0, 0, EvIteration, 1)
	b.EventC(0, 10, EvMPI, int64(MPIBarrier), []int64{50, 100, 2, 1, 10})
	b.Event(1, 12, EvMPI, int64(MPIBarrier))
	b.EventC(0, 20, EvMPI, 0, []int64{50, 120, 2, 1, 10})
	b.Event(1, 20, EvMPI, 0)
	b.Sample(0, 500, []int64{100, 200, 5, 1, 50}, []uint32{rSolve, rMain})
	b.Sample(0, 1500, []int64{300, 500, 9, 2, 160}, []uint32{rSolve, rMain})
	b.Sample(1, 700, []int64{90, 180, 3, 1, 40}, nil)
	b.Event(0, 2000, EvMPI, int64(MPISendRecv))
	b.Event(1, 2000, EvMPI, int64(MPISendRecv))
	b.Comm(0, 1, 2001, 2050, 4096, 7)
	b.Comm(1, 0, 2001, 2050, 4096, 7)
	b.Event(0, 2100, EvMPI, 0)
	b.Event(1, 2100, EvMPI, 0)
	return b.Build()
}

func TestBuilderBuildsSortedValidTrace(t *testing.T) {
	tr := buildSmallTrace(t)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tr.Meta.Duration != 2100 {
		t.Fatalf("Duration = %d, want 2100", tr.Meta.Duration)
	}
	if tr.Meta.App != "unit" || tr.Meta.Ranks != 2 || tr.Meta.Seed != 42 {
		t.Fatalf("metadata mismatch: %+v", tr.Meta)
	}
	if tr.Meta.Params["iters"] != "3" {
		t.Fatalf("params not recorded: %+v", tr.Meta.Params)
	}
	st := tr.Stats()
	if st.Events != 9 || st.Samples != 3 || st.Comms != 2 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.SamplesPerRank != 1.5 {
		t.Fatalf("SamplesPerRank = %v", st.SamplesPerRank)
	}
}

func TestBuilderRegionInterning(t *testing.T) {
	b := NewBuilder("x", 1)
	a := b.Region("foo")
	c := b.Region("bar")
	if a == c {
		t.Fatal("distinct names got same id")
	}
	if b.Region("foo") != a {
		t.Fatal("repeated name got different id")
	}
	if a == 0 || c == 0 {
		t.Fatal("region id 0 is reserved")
	}
	tr := b.Build()
	if tr.Meta.RegionName(a) != "foo" {
		t.Fatalf("RegionName = %q", tr.Meta.RegionName(a))
	}
	if got := tr.Meta.RegionName(9999); got != "region_9999" {
		t.Fatalf("unknown RegionName = %q", got)
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := map[string]func(){
		"zero ranks":      func() { NewBuilder("x", 0) },
		"bad event rank":  func() { NewBuilder("x", 2).Event(2, 0, EvMPI, 1) },
		"neg event rank":  func() { NewBuilder("x", 2).Event(-1, 0, EvMPI, 1) },
		"time regression": func() { b := NewBuilder("x", 1); b.Event(0, 10, EvMPI, 1); b.Event(0, 5, EvMPI, 0) },
		"sample regression": func() {
			b := NewBuilder("x", 1)
			b.Sample(0, 10, []int64{1}, nil)
			b.Sample(0, 5, []int64{2}, nil)
		},
		"counter decrease": func() {
			b := NewBuilder("x", 1)
			b.Sample(0, 10, []int64{5}, nil)
			b.Sample(0, 20, []int64{4}, nil)
		},
		"too many counters": func() {
			NewBuilder("x", 1).Sample(0, 0, make([]int64, int(counters.NumCounters)+1), nil)
		},
		"comm recv before send": func() { NewBuilder("x", 2).Comm(0, 1, 100, 50, 8, 0) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBuilderSampleStackCopied(t *testing.T) {
	b := NewBuilder("x", 1)
	stack := []uint32{1, 2}
	b.Sample(0, 0, []int64{1}, stack)
	stack[0] = 99
	tr := b.Build()
	if tr.Samples[0].Stack[0] != 1 {
		t.Fatal("builder aliased caller's stack slice")
	}
}

func TestRoundTripBinary(t *testing.T) {
	tr := buildSmallTrace(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	assertTracesEqual(t, tr, got)
}

func TestRoundTripFile(t *testing.T) {
	tr := buildSmallTrace(t)
	path := filepath.Join(t.TempDir(), "t.uvt")
	if err := tr.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	assertTracesEqual(t, tr, got)
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.uvt")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestWriteFileBadPath(t *testing.T) {
	tr := buildSmallTrace(t)
	if err := tr.WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir", "t.uvt")); err == nil {
		t.Fatal("expected error for unwritable path")
	}
}

func assertTracesEqual(t *testing.T, want, got *Trace) {
	t.Helper()
	if !reflect.DeepEqual(want.Meta, got.Meta) {
		t.Fatalf("metadata mismatch:\nwant %+v\ngot  %+v", want.Meta, got.Meta)
	}
	if !reflect.DeepEqual(want.Events, got.Events) {
		t.Fatalf("events mismatch:\nwant %+v\ngot  %+v", want.Events, got.Events)
	}
	if !reflect.DeepEqual(want.Samples, got.Samples) {
		t.Fatalf("samples mismatch:\nwant %+v\ngot  %+v", want.Samples, got.Samples)
	}
	if !reflect.DeepEqual(want.Comms, got.Comms) {
		t.Fatalf("comms mismatch:\nwant %+v\ngot  %+v", want.Comms, got.Comms)
	}
}

// TestRoundTripRandomized is a property test: arbitrary (but invariant-
// respecting) traces survive a binary round trip bit-exactly.
func TestRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 25; trial++ {
		ranks := 1 + rng.IntN(8)
		b := NewBuilder("rand", ranks)
		b.SetSeed(rng.Uint64())
		now := make([]Time, ranks)
		ctr := make([][5]int64, ranks)
		inMPI := make([]bool, ranks)
		nEv := rng.IntN(200)
		for i := 0; i < nEv; i++ {
			r := int32(rng.IntN(ranks))
			now[r] += Time(rng.IntN(1000))
			switch rng.IntN(3) {
			case 0:
				val := int64(MPIBarrier)
				if inMPI[r] {
					val = 0
				}
				if rng.IntN(2) == 0 {
					for c := range ctr[r] {
						ctr[r][c] += rng.Int64N(100)
					}
					b.EventC(r, now[r], EvMPI, val, ctr[r][:])
				} else {
					b.Event(r, now[r], EvMPI, val)
				}
				inMPI[r] = !inMPI[r]
			case 1:
				for c := range ctr[r] {
					ctr[r][c] += rng.Int64N(1000)
				}
				depth := rng.IntN(4)
				stack := make([]uint32, depth)
				for d := range stack {
					stack[d] = rng.Uint32N(100)
				}
				b.Sample(r, now[r], ctr[r][:], stack)
			case 2:
				dst := int32(rng.IntN(ranks))
				b.Comm(r, dst, now[r], now[r]+Time(rng.IntN(500)), rng.Int64N(1<<20), int32(rng.IntN(100)))
			}
		}
		for r := int32(0); r < int32(ranks); r++ {
			if inMPI[r] {
				now[r]++
				b.Event(r, now[r], EvMPI, 0)
				inMPI[r] = false
			}
		}
		tr := b.Build()
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: built trace invalid: %v", trial, err)
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("trial %d: Write: %v", trial, err)
		}
		got, err := ReadFrom(&buf)
		if err != nil {
			t.Fatalf("trial %d: ReadFrom: %v", trial, err)
		}
		assertTracesEqual(t, tr, got)
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: decoded trace invalid: %v", trial, err)
		}
	}
}

// TestTruncatedStream checks every prefix of an encoded trace fails to
// decode cleanly rather than panicking or silently succeeding.
func TestTruncatedStream(t *testing.T) {
	tr := buildSmallTrace(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 7 {
		_, err := ReadFrom(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(full))
		}
	}
}

func TestBadMagic(t *testing.T) {
	_, err := ReadFrom(bytes.NewReader([]byte("XXXXGARBAGE")))
	if err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestCorruptMetadata(t *testing.T) {
	raw := append([]byte{}, magic[:]...)
	raw = append(raw, 5)                  // metaLen = 5
	raw = append(raw, []byte("notjs")...) // invalid JSON
	if _, err := ReadFrom(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected error for corrupt metadata")
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	base := buildSmallTrace(t)
	mutations := map[string]func(tr *Trace){
		"rank out of range": func(tr *Trace) { tr.Events[0].Rank = 99 },
		"event after end":   func(tr *Trace) { tr.Events[len(tr.Events)-1].Time = tr.Meta.Duration + 1 },
		"unsorted events": func(tr *Trace) {
			tr.Events[0], tr.Events[len(tr.Events)-1] = tr.Events[len(tr.Events)-1], tr.Events[0]
		},
		"double MPI enter": func(tr *Trace) { tr.Events[2].Value = int64(MPIBarrier); tr.Events[3].Value = int64(MPIBarrier) },
		"comm recv early":  func(tr *Trace) { tr.Comms[0].RecvTime = tr.Comms[0].SendTime - 1 },
		"comm negative sz": func(tr *Trace) { tr.Comms[0].Size = -1 },
		"zero ranks":       func(tr *Trace) { tr.Meta.Ranks = 0 },
		"sample rank":      func(tr *Trace) { tr.Samples[0].Rank = -1 },
	}
	for name, mutate := range mutations {
		var buf bytes.Buffer
		if err := base.Write(&buf); err != nil {
			t.Fatal(err)
		}
		tr, err := ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupted trace", name)
		}
	}
}

func TestEventCBuilderChecks(t *testing.T) {
	// Event counters must be monotone per rank across EventC calls.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("EventC accepted decreasing counters")
			}
		}()
		b := NewBuilder("x", 1)
		b.EventC(0, 10, EvMPI, 1, []int64{100})
		b.EventC(0, 20, EvMPI, 0, []int64{50})
	}()
	// Event and sample counter streams are tracked independently: a sample
	// earlier in time than the latest event may carry smaller counters.
	b := NewBuilder("x", 1)
	b.EventC(0, 100, EvMPI, 1, []int64{1000})
	b.Sample(0, 50, []int64{400}, nil)
	b.EventC(0, 120, EvMPI, 0, []int64{1000})
	tr := b.Build()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateEventCountersMonotone(t *testing.T) {
	b := NewBuilder("x", 1)
	b.EventC(0, 10, EvMPI, 1, []int64{100, 0, 0, 0, 0})
	b.EventC(0, 20, EvMPI, 0, []int64{200, 0, 0, 0, 0})
	tr := b.Build()
	tr.Events[1].Counters[0] = 10
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate accepted decreasing event counters")
	}
}

func TestValidateCountersMonotone(t *testing.T) {
	b := NewBuilder("x", 1)
	b.Sample(0, 10, []int64{100, 100, 1, 1, 1}, nil)
	b.Sample(0, 20, []int64{200, 200, 2, 2, 2}, nil)
	tr := b.Build()
	// Corrupt after building (builder itself would have panicked).
	tr.Samples[1].Counters[0] = 50
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate accepted decreasing counters")
	}
}

func TestEventsSamplesOfRank(t *testing.T) {
	tr := buildSmallTrace(t)
	ev0 := tr.EventsOfRank(0)
	for _, e := range ev0 {
		if e.Rank != 0 {
			t.Fatalf("EventsOfRank returned rank %d", e.Rank)
		}
	}
	if len(ev0)+len(tr.EventsOfRank(1)) != len(tr.Events) {
		t.Fatal("per-rank events do not partition the stream")
	}
	s1 := tr.SamplesOfRank(1)
	if len(s1) != 1 || s1[0].Rank != 1 {
		t.Fatalf("SamplesOfRank(1) = %+v", s1)
	}
}

func TestTimeUnits(t *testing.T) {
	tt := Time(2_500_000)
	if tt.Microseconds() != 2500 {
		t.Fatalf("Microseconds = %v", tt.Microseconds())
	}
	if tt.Milliseconds() != 2.5 {
		t.Fatalf("Milliseconds = %v", tt.Milliseconds())
	}
}

func TestEventTypeAndMPIOpStrings(t *testing.T) {
	if EvMPI.String() != "MPI" || EvOracle.String() != "ORACLE" {
		t.Fatal("event type names wrong")
	}
	if EventType(99).String() != "EVTYPE_99" {
		t.Fatal("unknown event type name wrong")
	}
	if MPIBarrier.String() != "MPI_Barrier" {
		t.Fatal("MPI op name wrong")
	}
	if MPIOp(42).String() != "MPI_Op_42" {
		t.Fatal("unknown MPI op name wrong")
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	b := NewBuilder("empty", 1)
	tr := b.Build()
	if err := tr.Validate(); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 0 || len(got.Samples) != 0 || len(got.Comms) != 0 {
		t.Fatal("empty trace decoded non-empty")
	}
}

// TestSortMatchesStableSort: Sort puts events, samples and comms in the
// order sort.SliceStable gives by (Time, Rank) and (SendTime, Src), ties
// in arrival order, for random, reversed and sorted inputs, and leaves a
// sorted trace in place without allocating.
func TestSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	gen := func(n int) *Trace {
		tr := &Trace{}
		for i := 0; i < n; i++ {
			// Few times and three ranks: many equal (Time, Rank) pairs.
			tm, rk := Time(rng.IntN(n/8+1)), int32(rng.IntN(3))
			tr.Events = append(tr.Events, Event{Rank: rk, Time: tm, Value: int64(i)})
			tr.Samples = append(tr.Samples, Sample{Rank: rk, Time: tm, Stack: []uint32{uint32(i)}})
			tr.Comms = append(tr.Comms, Comm{Src: rk, SendTime: tm, Size: int64(i)})
		}
		return tr
	}
	stable := func(tr *Trace) *Trace {
		out := &Trace{
			Events:  append([]Event(nil), tr.Events...),
			Samples: append([]Sample(nil), tr.Samples...),
			Comms:   append([]Comm(nil), tr.Comms...),
		}
		sort.SliceStable(out.Events, func(i, j int) bool {
			a, b := out.Events[i], out.Events[j]
			return a.Time < b.Time || a.Time == b.Time && a.Rank < b.Rank
		})
		sort.SliceStable(out.Samples, func(i, j int) bool {
			a, b := out.Samples[i], out.Samples[j]
			return a.Time < b.Time || a.Time == b.Time && a.Rank < b.Rank
		})
		sort.SliceStable(out.Comms, func(i, j int) bool {
			a, b := out.Comms[i], out.Comms[j]
			return a.SendTime < b.SendTime || a.SendTime == b.SendTime && a.Src < b.Src
		})
		return out
	}
	for _, n := range []int{0, 1, 2, 17, 1000, 5000} {
		for _, order := range []string{"random", "reversed", "sorted"} {
			tr := gen(n)
			switch order {
			case "reversed":
				slices.Reverse(tr.Events)
				slices.Reverse(tr.Samples)
				slices.Reverse(tr.Comms)
			case "sorted":
				tr = stable(tr)
			}
			want := stable(tr)
			tr.Sort()
			if !reflect.DeepEqual(tr.Events, want.Events) ||
				!reflect.DeepEqual(tr.Samples, want.Samples) ||
				!reflect.DeepEqual(tr.Comms, want.Comms) {
				t.Fatalf("n=%d %s: Sort differs from sort.SliceStable", n, order)
			}
		}
	}
	tr := stable(gen(1000))
	if a := testing.AllocsPerRun(10, tr.Sort); a != 0 {
		t.Fatalf("sorting a sorted trace allocates %v times", a)
	}
}
