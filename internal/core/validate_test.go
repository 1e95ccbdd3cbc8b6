package core

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/deepeq"
	"repro/internal/trace"
)

// validationCase is a stencil trace broken by one rule of
// Trace.Validate; rule is a fragment of the error that rule gives.
// salvaged marks the row-local rules, whose record a lenient decode
// drops before any check can see it.
type validationCase struct {
	name, rule string
	salvaged   bool
	tr         *trace.Trace
}

// validationCases breaks a copy of base (stencil, a few ranks) once per
// rule of Trace.Validate, each time at a record no earlier rule trips on.
func validationCases(t *testing.T, base *trace.Trace) []validationCase {
	t.Helper()
	var cases []validationCase
	add := func(name, rule string, salvaged bool, edit func(tr *trace.Trace)) {
		tr := &trace.Trace{
			Meta:    base.Meta,
			Events:  append([]trace.Event(nil), base.Events...),
			Samples: append([]trace.Sample(nil), base.Samples...),
			Comms:   append([]trace.Comm(nil), base.Comms...),
		}
		edit(tr)
		cases = append(cases, validationCase{name, rule, salvaged, tr})
	}
	mid := len(base.Events) / 2
	// mpiAt returns the first MPI event at or after mid that enters a
	// call (enter) or leaves one.
	mpiAt := func(tr *trace.Trace, enter bool) int {
		for i := mid; i < len(tr.Events); i++ {
			if e := tr.Events[i]; e.Type == trace.EvMPI && (e.Value != 0) == enter {
				return i
			}
		}
		t.Fatal("no MPI event past the middle")
		return -1
	}
	// secondOnRank0 returns the index of the second of n records on rank
	// 0 for which keep holds, and the index of the first.
	secondOnRank0 := func(n int, rank func(int) int32, keep func(int) bool) (first, second int) {
		first = -1
		for i := 0; i < n; i++ {
			if rank(i) != 0 || !keep(i) {
				continue
			}
			if first >= 0 {
				return first, i
			}
			first = i
		}
		t.Fatal("rank 0 has fewer than two such records")
		return -1, -1
	}

	add("metadata ranks", "metadata rank count", false, func(tr *trace.Trace) {
		tr.Meta.Ranks = 0
	})
	add("rank out of range", "has rank", true, func(tr *trace.Trace) {
		tr.Events[mpiAt(tr, true)].Rank = int32(tr.Meta.Ranks)
	})
	add("after duration", "after duration", true, func(tr *trace.Trace) {
		tr.Meta.Duration = tr.Events[len(tr.Events)-1].Time - 1
	})
	add("unsorted events", "events not sorted", true, func(tr *trace.Trace) {
		for i := mid; i+1 < len(tr.Events); i++ {
			if a, b := &tr.Events[i], &tr.Events[i+1]; a.Rank > b.Rank && b.Type == trace.EvMPI {
				b.Time = a.Time
				return
			}
		}
		t.Fatal("no rank-descending event pair past the middle")
	})
	add("event counter decreases", "decreased at event", false, func(tr *trace.Trace) {
		first, second := secondOnRank0(len(tr.Events),
			func(i int) int32 { return tr.Events[i].Rank },
			func(i int) bool { return tr.Events[i].HasCounters })
		tr.Events[second].Counters[0] = tr.Events[first].Counters[0] - 1
	})
	add("enter inside a call", "while already inside", false, func(tr *trace.Trace) {
		tr.Events[mpiAt(tr, false)].Value = int64(trace.MPISend)
	})
	add("exit outside a call", "while outside", false, func(tr *trace.Trace) {
		tr.Events[mpiAt(tr, true)].Value = 0
	})
	add("ends inside a call", "ends inside an MPI call", false, func(tr *trace.Trace) {
		for i := len(tr.Events) - 1; i >= 0; i-- {
			if e := tr.Events[i]; e.Rank == 0 && e.Type == trace.EvMPI && e.Value == 0 {
				tr.Events = append(tr.Events[:i], tr.Events[i+1:]...)
				return
			}
		}
		t.Fatal("rank 0 never leaves an MPI call")
	})
	add("sample counter decreases", "decreased at sample", false, func(tr *trace.Trace) {
		first, second := secondOnRank0(len(tr.Samples),
			func(i int) int32 { return tr.Samples[i].Rank },
			func(int) bool { return true })
		tr.Samples[second].Counters[0] = tr.Samples[first].Counters[0] - 1
	})
	add("comm received before sent", "before sent", true, func(tr *trace.Trace) {
		c := &tr.Comms[len(tr.Comms)/2]
		c.RecvTime = c.SendTime - 1
	})
	add("negative comm size", "negative size", true, func(tr *trace.Trace) {
		tr.Comms[len(tr.Comms)/2].Size = -1
	})
	return cases
}

// TestWholeTraceValidation pins that every whole-trace analysis checks
// Trace.Validate's rules as the trace streams, one rule per row. Strict,
// the batch, streamed (exact and online) and mapped analyses all fail
// with Validate's error for the violation. Lenient, the streamed report
// deep-equals the one of the trace decoded leniently first, and both
// carry Validate's verdict on the records that decode as one warning,
// right after the salvage lines.
func TestWholeTraceValidation(t *testing.T) {
	ctx := context.Background()
	online := Options{Stream: StreamOptions{Online: true, TrainBursts: 32}}
	for _, tc := range validationCases(t, simTrace(t, "stencil", 4, 30)) {
		t.Run(tc.name, func(t *testing.T) {
			verr := tc.tr.Validate()
			if verr == nil || !strings.Contains(verr.Error(), tc.rule) {
				t.Fatalf("Validate = %v, want the %q rule", verr, tc.rule)
			}
			var buf bytes.Buffer
			if err := tc.tr.Write(&buf); err != nil {
				t.Fatal(err)
			}
			enc := buf.Bytes()

			want := "core: " + verr.Error()
			strict := map[string]func() error{
				"AnalyzeContext": func() error {
					_, err := AnalyzeContext(ctx, tc.tr, Options{})
					return err
				},
				"AnalyzeStreamContext": func() error {
					_, err := AnalyzeStreamContext(ctx, bytes.NewReader(enc), Options{})
					return err
				},
				"AnalyzeStreamContext online": func() error {
					_, err := AnalyzeStreamContext(ctx, bytes.NewReader(enc), online)
					return err
				},
				"MapShardStreamContext+Reduce": func() error {
					p, err := MapShardStreamContext(ctx, bytes.NewReader(enc), WholeSpec(), Options{})
					if err != nil {
						return err
					}
					_, err = Reduce([]*Partial{p}, nil, Options{})
					return err
				},
			}
			for name, run := range strict {
				if err := run(); !errors.Is(err, trace.ErrInvalid) || err.Error() != want {
					t.Errorf("strict %s: %v, want %q", name, err, want)
				}
			}

			lenient := Options{Lenient: true}
			stream, serr := AnalyzeStreamContext(ctx, bytes.NewReader(enc), lenient)
			salvaged, st, err := trace.ReadFromLenient(bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			batch, berr := AnalyzeContext(ctx, salvaged, lenient)
			if tc.tr.Meta.Validate() != nil {
				// Nothing is analyzed without a rank, leniently or not.
				if serr == nil || berr == nil || serr.Error() != want || berr.Error() != want {
					t.Fatalf("lenient: streamed %v, batch %v; want both %q", serr, berr, want)
				}
				return
			}
			if serr != nil || berr != nil {
				t.Fatalf("lenient: streamed %v, batch %v", serr, berr)
			}
			batch.NoteDecode(st)
			normalizeReport(batch, stream)
			if d := deepeq.Diff(batch, stream); d != "" {
				t.Errorf("lenient streamed report differs from the salvaged trace's at %s", d)
			}

			var wantWarns []string
			if err := salvaged.Validate(); err != nil {
				wantWarns = []string{ValidationWarning(err)}
			}
			if !tc.salvaged {
				// The decode dropped nothing, so the warning is the trace's.
				wantWarns = []string{ValidationWarning(verr)}
			}
			if tc.salvaged != st.Degraded() {
				t.Errorf("lenient decode stats %+v; want salvage %v", st, tc.salvaged)
			}
			salvage := len(st.Warnings())
			if got := validationWarnings(stream.Warnings); !slices.Equal(got, wantWarns) ||
				len(got) > 0 && stream.Warnings[salvage] != got[0] {
				t.Errorf("lenient warnings %q; want %q after %d salvage lines", stream.Warnings, wantWarns, salvage)
			}
			if !stream.Degraded {
				t.Error("lenient report not Degraded")
			}

			on, err := AnalyzeStreamContext(ctx, bytes.NewReader(enc), Options{Lenient: true, Stream: online.Stream})
			if err != nil {
				t.Fatalf("lenient online: %v", err)
			}
			if got := validationWarnings(on.Warnings); !on.Degraded || !slices.Equal(got, wantWarns) {
				t.Errorf("lenient online: Degraded %v, validation warnings %q; want %q", on.Degraded, got, wantWarns)
			}
		})
	}
}

// validationWarnings returns the validation warnings among ws.
func validationWarnings(ws []string) []string {
	var out []string
	for _, w := range ws {
		if strings.HasPrefix(w, "trace failed validation") {
			out = append(out, w)
		}
	}
	return out
}
