// Package burst extracts computation bursts from traces. A computation
// burst is the interval a rank spends outside MPI between two consecutive
// instrumented MPI calls — the opaque region whose internal structure the
// folding mechanism unveils. Each burst carries the hardware-counter
// deltas between the probe readings at its boundaries, the raw material
// for burst clustering.
package burst

import (
	"fmt"

	"repro/internal/counters"
	"repro/internal/trace"
)

// Burst is one computation interval on one rank.
type Burst struct {
	// Rank is the MPI rank the burst executed on.
	Rank int32
	// Index is the burst's per-rank sequence number, starting at 0.
	Index int
	// Start and End delimit the burst: End - Start is the duration.
	Start, End trace.Time
	// Delta holds the hardware-counter increments over the burst, read
	// from the probe snapshots at its boundaries.
	Delta counters.Values
	// Base holds the absolute counter snapshot at Start; samples inside
	// the burst normalize against it (sample - Base) / Delta.
	Base counters.Values
	// OracleID is the ground-truth kernel identity (from EvOracle events
	// inside the burst), 0 when unavailable. It is used only for
	// validation, never by the analysis itself.
	OracleID int64
	// Cluster is the cluster id assigned by clustering: 0 means noise or
	// not yet clustered, 1..K are clusters ordered by total time.
	Cluster int
}

// Duration returns the burst length.
func (b *Burst) Duration() trace.Time { return b.End - b.Start }

// Instructions returns the completed-instruction delta.
func (b *Burst) Instructions() int64 { return b.Delta[counters.TotIns] }

// IPC returns instructions per cycle over the burst.
func (b *Burst) IPC() float64 { return b.Delta.IPC() }

// Extractor is the incremental burst extraction state machine: feed it
// the trace's events in time order and it yields each computation burst
// the moment the closing MPI enter arrives. It is the unit of work behind
// Extract and the streaming pipeline's extraction stage, so both paths
// run identical logic.
type Extractor struct {
	states []extractState
}

type extractState struct {
	boundary    trace.Time
	baseline    counters.Values
	hasBaseline bool
	inMPI       bool
	oracle      int64
	index       int
}

// NewExtractor creates an extractor for a trace with the given rank
// count.
func NewExtractor(ranks int) (*Extractor, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("burst: trace has no ranks")
	}
	x := &Extractor{states: make([]extractState, ranks)}
	for i := range x.states {
		x.states[i].hasBaseline = true // trace start: time 0, zero counters
	}
	return x, nil
}

// Add feeds one event. When the event closes a burst, the burst is
// returned with ok true. A burst opens at the trace start or at an MPI
// exit and closes at the next MPI enter on the same rank; bursts need
// counter snapshots on both delimiting probes (the trace-start baseline
// is zero) and bursts of zero duration are skipped.
func (x *Extractor) Add(e *trace.Event) (b Burst, ok bool, err error) {
	if int(e.Rank) >= len(x.states) || e.Rank < 0 {
		return b, false, fmt.Errorf("burst: event rank %d out of range", e.Rank)
	}
	st := &x.states[e.Rank]
	switch e.Type {
	case trace.EvOracle:
		if e.Value != 0 && st.oracle == 0 {
			st.oracle = e.Value
		}
	case trace.EvMPI:
		if e.Value != 0 {
			// MPI enter closes the current burst.
			if !st.inMPI && st.hasBaseline && e.HasCounters && e.Time > st.boundary {
				b = Burst{
					Rank:     e.Rank,
					Index:    st.index,
					Start:    st.boundary,
					End:      e.Time,
					Delta:    e.Counters.Sub(st.baseline),
					Base:     st.baseline,
					OracleID: st.oracle,
				}
				ok = true
				st.index++
			}
			st.inMPI = true
			st.oracle = 0
		} else {
			// MPI exit opens the next burst.
			st.inMPI = false
			st.boundary = e.Time
			st.baseline = e.Counters
			st.hasBaseline = e.HasCounters
			st.oracle = 0
		}
	}
	return b, ok, nil
}

// Sort orders bursts in the global (Start, Rank) order Extract
// guarantees. The sort is stable, so per-rank sequence order is
// preserved (trace.SortStable).
func Sort(bursts []Burst) {
	trace.SortStable(bursts, func(b *Burst) (trace.Time, int32) { return b.Start, b.Rank })
}

// Extract walks the trace and returns every computation burst, in global
// (Start, Rank) order. It is a thin batch wrapper over Extractor.
func Extract(tr *trace.Trace) ([]Burst, error) {
	x, err := NewExtractor(tr.Meta.Ranks)
	if err != nil {
		return nil, err
	}
	var out []Burst
	for i := range tr.Events {
		b, ok, err := x.Add(&tr.Events[i])
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, b)
		}
	}
	Sort(out)
	return out, nil
}

// Filter drops bursts that are too short to be meaningful computation
// phases, as the clustering tooling the paper builds on does.
type Filter struct {
	// MinDuration drops bursts shorter than this.
	MinDuration trace.Time
}

// Apply partitions bursts into kept and dropped according to the filter.
func (f Filter) Apply(bursts []Burst) (kept, dropped []Burst) {
	for _, b := range bursts {
		if b.Duration() < f.MinDuration {
			dropped = append(dropped, b)
		} else {
			kept = append(kept, b)
		}
	}
	return kept, dropped
}

// AttachSamples returns, for each burst, the trace samples falling inside
// [Start, End), in time order. The i-th result slice corresponds to
// bursts[i]. Sample slices alias the trace's sample storage.
func AttachSamples(tr *trace.Trace, bursts []Burst) [][]trace.Sample {
	// Group samples per rank (already globally time-sorted).
	perRank := make([][]trace.Sample, tr.Meta.Ranks)
	for _, s := range tr.Samples {
		if int(s.Rank) < len(perRank) {
			perRank[s.Rank] = append(perRank[s.Rank], s)
		}
	}
	// Group burst indices per rank, preserving their per-rank time order.
	burstIdx := make([][]int, tr.Meta.Ranks)
	for i := range bursts {
		r := bursts[i].Rank
		if int(r) < len(burstIdx) {
			burstIdx[r] = append(burstIdx[r], i)
		}
	}
	out := make([][]trace.Sample, len(bursts))
	for r := range burstIdx {
		samples := perRank[r]
		si := 0
		for _, bi := range burstIdx[r] {
			b := &bursts[bi]
			for si < len(samples) && samples[si].Time < b.Start {
				si++
			}
			lo := si
			for si < len(samples) && samples[si].Time < b.End {
				si++
			}
			if si > lo {
				out[bi] = samples[lo:si]
			}
		}
	}
	return out
}
