package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/burst"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/structure"
	"repro/internal/trace"
)

// oracleMinBurst is the duration filter the oracle runs share: the 50 µs
// default core applies.
const oracleMinBurst trace.Time = 50_000

// oracleCase is one input trace of the oracle tests.
type oracleCase struct {
	name string
	tr   *trace.Trace
}

// simTrace simulates app at 4 ranks × 60 iterations.
func simTrace(t *testing.T, name string, cfg sim.Config) *trace.Trace {
	t.Helper()
	app, err := apps.ByName(name, 60)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// encodeTrace returns tr's binary encoding.
func encodeTrace(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// boundaryTrace is a hand-built 2-rank trace with records on the edges
// the simulated traces almost never hit: a burst lasting exactly the
// filter threshold (kept) and one a nanosecond shorter (dropped), and
// samples at a burst's Start (attached) and at its End (not attached:
// bursts are [Start, End)).
func boundaryTrace() *trace.Trace {
	b := trace.NewBuilder("boundary", 2)
	ctrs := func(t trace.Time) []int64 { return []int64{2 * int64(t), int64(t), int64(t) / 8, int64(t) / 64} }
	for r := int32(0); r < 2; r++ {
		b.Event(r, 0, trace.EvIteration, 1)
		b.EventC(r, oracleMinBurst, trace.EvMPI, int64(trace.MPIBarrier), ctrs(oracleMinBurst))
		b.EventC(r, 60_000, trace.EvMPI, 0, ctrs(60_000))
		b.EventC(r, 60_000+oracleMinBurst-1, trace.EvMPI, int64(trace.MPIBarrier), ctrs(60_000+oracleMinBurst-1))
		b.EventC(r, 120_000, trace.EvMPI, 0, ctrs(120_000))
		b.Event(r, 120_000, trace.EvIteration, 2)
		b.EventC(r, 220_000, trace.EvMPI, int64(trace.MPIBarrier), ctrs(220_000))
		b.EventC(r, 230_000, trace.EvMPI, 0, ctrs(230_000))
		for _, st := range []trace.Time{0, oracleMinBurst, 60_000, 120_000, 219_999, 220_000} {
			b.Sample(r, st, ctrs(st), []uint32{uint32(r) + 1, uint32(st / 1000)})
		}
	}
	b.Comm(0, 1, 55_000, 58_000, 64, 0)
	return b.Build()
}

// checkMapHalf compares a run's measured outcome with what the batch
// functions compute from the whole in-memory trace want. They share none
// of the stages' block iteration, sample cursor walk or marker
// collection, so agreement pins the streaming map half to an
// independent answer. An online run is held to the same answer, except
// that it labels its bursts and attaches no samples.
func checkMapHalf(t *testing.T, out *Outcome, want *trace.Trace) {
	t.Helper()
	all, err := burst.Extract(want)
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := burst.Filter{MinDuration: oracleMinBurst}.Apply(all)

	wantRecs := RecordCounts{
		Events:  int64(len(want.Events)),
		Samples: int64(len(want.Samples)),
		Comms:   int64(len(want.Comms)),
	}
	if out.Records != wantRecs {
		t.Errorf("records %+v, want %+v", out.Records, wantRecs)
	}
	if out.Bursts != len(all) {
		t.Errorf("bursts %d, want %d", out.Bursts, len(all))
	}
	rankBursts := make([]int, want.Meta.Ranks)
	for i := range all {
		rankBursts[all[i].Rank]++
	}
	if !reflect.DeepEqual(out.RankBursts, rankBursts) {
		t.Errorf("per-rank bursts %v, want %v", out.RankBursts, rankBursts)
	}
	if out.KeptTime != totalTime(kept) || out.AllTime != totalTime(all) {
		t.Errorf("kept/all time %d/%d, want %d/%d",
			out.KeptTime, out.AllTime, totalTime(kept), totalTime(all))
	}
	got := out.Kept
	if out.Online {
		got = append([]burst.Burst(nil), got...)
		for i := range got {
			got[i].Cluster = 0
		}
	}
	if !reflect.DeepEqual(got, kept) {
		t.Errorf("kept bursts differ from Filter(Extract): %d vs %d", len(got), len(kept))
	}
	if out.Online {
		if out.Attached != nil {
			t.Error("online run attached samples")
		}
	} else if !reflect.DeepEqual(out.Attached, burst.AttachSamples(want, kept)) {
		t.Error("attached samples differ from burst.AttachSamples")
	}

	prof, perr := profile.Merge([]*profile.Partial{out.ProfilePartial}, out.Meta.Duration)
	wantProf, wantErr := profile.Compute(want)
	if fmt.Sprint(perr) != fmt.Sprint(wantErr) {
		t.Errorf("profile error %v, want %v", perr, wantErr)
	}
	if !reflect.DeepEqual(prof, wantProf) {
		t.Error("merged profile differs from profile.Compute")
	}
	if got, want := structure.IterationsFromMarks(out.Marks), structure.Iterations(want); !reflect.DeepEqual(got, want) {
		t.Errorf("iterations %+v, want %+v", got, want)
	}
}

// TestMapHalfMatchesBatchOracle pins the exact-mode map half — the run
// every exact analysis path is composed from — to the in-memory batch
// functions, for every app under coarse and fine sampling and for the
// boundary trace, fed both from the in-memory trace and from its
// encoding. The online run over the encoding is held to the same
// answer, so its profile fragment and marks go through the same merge.
func TestMapHalfMatchesBatchOracle(t *testing.T) {
	cases := []oracleCase{{"boundary", boundaryTrace()}}
	for _, name := range apps.Names() {
		cases = append(cases,
			oracleCase{name + "/default", simTrace(t, name, apps.DefaultTraceConfig(4))},
			oracleCase{name + "/fine", simTrace(t, name, apps.FineTraceConfig(4))})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{MinBurstDuration: oracleMinBurst, Parallelism: 2}
			out, err := RunContext(context.Background(), trace.NewTraceSource(tc.tr), cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMapHalf(t, out, tc.tr)

			enc := encodeTrace(t, tc.tr)
			decoded, err := trace.ReadFrom(bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			sr, err := trace.NewStreamReader(bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			out, err = RunContext(context.Background(), sr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMapHalf(t, out, decoded)
			if out.Decode != nil {
				t.Errorf("strict source reported salvage stats %+v", *out.Decode)
			}

			online := cfg
			online.Online = true
			if sr, err = trace.NewStreamReader(bytes.NewReader(enc)); err != nil {
				t.Fatal(err)
			}
			if out, err = RunContext(context.Background(), sr, online); err != nil {
				t.Fatal(err)
			}
			checkMapHalf(t, out, decoded)
		})
	}
}

// TestMapHalfLenientMatchesBatchOracle runs the map half over damaged
// encodings in salvage mode: it must analyze exactly the trace
// trace.ReadFromLenient salvages, with identical DecodeStats. (The
// midpoint bit flip lands in a value, so it decodes without a
// concession; the truncation must be reported.)
func TestMapHalfLenientMatchesBatchOracle(t *testing.T) {
	enc := encodeTrace(t, simTrace(t, "stencil", apps.DefaultTraceConfig(4)))
	flip := append([]byte(nil), enc...)
	flip[len(flip)/2] ^= 0x40
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated", enc[: len(enc)*3/5 : len(enc)*3/5]},
		{"bitflip", flip},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, stats, err := trace.ReadFromLenient(bytes.NewReader(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "truncated" && !stats.Truncated {
				t.Fatalf("truncation went unnoticed: %+v", stats)
			}
			sr, err := trace.NewStreamReaderMode(bytes.NewReader(tc.data), trace.Lenient)
			if err != nil {
				t.Fatal(err)
			}
			out, err := RunContext(context.Background(), sr, Config{
				MinBurstDuration: oracleMinBurst, Lenient: true, Parallelism: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			checkMapHalf(t, out, want)
			if out.Decode == nil || *out.Decode != stats {
				t.Errorf("decode stats %v, want %+v", out.Decode, stats)
			}
		})
	}
}

// TestClusteringModeMatchesBatchOracle pins the NoSamples map half
// that the burstcluster and trstats CLIs run before they cluster: kept
// bursts (sorted, unlabelled), flat profile and iteration statistics
// must deep-equal the batch functions over the decoded trace, and no
// sample may be attached, for every app and the boundary trace.
func TestClusteringModeMatchesBatchOracle(t *testing.T) {
	cases := []oracleCase{{"boundary", boundaryTrace()}}
	for _, name := range apps.Names() {
		cases = append(cases, oracleCase{name, simTrace(t, name, apps.DefaultTraceConfig(4))})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc := encodeTrace(t, tc.tr)
			want, err := trace.ReadFrom(bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			sr, err := trace.NewStreamReader(bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			out, err := RunContext(context.Background(), sr, Config{
				MinBurstDuration: oracleMinBurst, NoSamples: true, Parallelism: 2,
			})
			if err != nil {
				t.Fatal(err)
			}

			all, err := burst.Extract(want)
			if err != nil {
				t.Fatal(err)
			}
			kept, _ := burst.Filter{MinDuration: oracleMinBurst}.Apply(all)
			burst.Sort(kept)

			if !reflect.DeepEqual(out.Kept, kept) {
				t.Errorf("kept bursts differ from Sort(Filter(Extract)): %d vs %d", len(out.Kept), len(kept))
			}
			wantProf, err := profile.Compute(want)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := profile.Merge([]*profile.Partial{out.ProfilePartial}, out.Meta.Duration)
			if err != nil || !reflect.DeepEqual(prof, wantProf) {
				t.Errorf("merged profile differs from profile.Compute (err %v)", err)
			}
			if got, want := structure.IterationsFromMarks(out.Marks), structure.Iterations(want); !reflect.DeepEqual(got, want) {
				t.Errorf("iterations %+v, want %+v", got, want)
			}
			if out.Attached != nil {
				t.Error("NoSamples run attached samples")
			}
		})
	}
}

// totalTime sums the durations of bursts.
func totalTime(bursts []burst.Burst) trace.Time {
	var t trace.Time
	for i := range bursts {
		t += bursts[i].Duration()
	}
	return t
}
