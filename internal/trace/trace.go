// Package trace defines the trace data model shared by the whole pipeline:
// the simulator produces traces, and burst extraction, clustering and
// folding consume them.
//
// The model mirrors the record kinds an Extrae-instrumented MPI run
// produces: punctual instrumentation events (enter/exit of MPI calls and
// user regions), periodic samples carrying hardware-counter snapshots and
// call stacks, and point-to-point communication records. Times are virtual
// nanoseconds from the start of the run.
package trace

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/counters"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time int64

// Microseconds returns the time as a float64 microsecond count, the unit
// most reports use.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

// Milliseconds returns the time as float64 milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / 1e6 }

// EventType classifies instrumentation events.
type EventType uint8

const (
	// EvMPI marks entry (Value = MPI operation id) and exit (Value = 0) of
	// an MPI call. These are the events that delimit computation bursts.
	EvMPI EventType = iota
	// EvRegion marks entry (Value = region id) and exit (Value = 0) of an
	// instrumented user region. The simulator emits them only when the
	// region is explicitly instrumented.
	EvRegion
	// EvIteration marks the start of main-loop iteration number Value.
	EvIteration
	// EvOracle carries ground-truth phase identity from the simulator
	// (Value = kernel id at entry, 0 at exit). It is NEVER consumed by the
	// analysis pipeline; tests use it to validate clustering and folding
	// against the truth.
	EvOracle
	numEventTypes
)

var eventTypeNames = [numEventTypes]string{"MPI", "REGION", "ITERATION", "ORACLE"}

// String names the event type.
func (t EventType) String() string {
	if t < numEventTypes {
		return eventTypeNames[t]
	}
	return fmt.Sprintf("EVTYPE_%d", uint8(t))
}

// MPIOp identifies an MPI operation in EvMPI event values. Value 0 is
// reserved to mean "exit".
type MPIOp int64

// MPI operations the simulator models.
const (
	MPINone      MPIOp = 0 // exit marker
	MPISend      MPIOp = 1
	MPIRecv      MPIOp = 2
	MPISendRecv  MPIOp = 3
	MPIBarrier   MPIOp = 4
	MPIAllreduce MPIOp = 5
	MPIBcast     MPIOp = 6
	MPIReduce    MPIOp = 7
	MPIAlltoall  MPIOp = 8
	MPIWaitall   MPIOp = 9
	MPIIsend     MPIOp = 10
	MPIIrecv     MPIOp = 11
	maxMPIOp     MPIOp = MPIIrecv
)

var mpiOpNames = map[MPIOp]string{
	MPINone:      "Outside MPI",
	MPISend:      "MPI_Send",
	MPIRecv:      "MPI_Recv",
	MPISendRecv:  "MPI_Sendrecv",
	MPIBarrier:   "MPI_Barrier",
	MPIAllreduce: "MPI_Allreduce",
	MPIBcast:     "MPI_Bcast",
	MPIReduce:    "MPI_Reduce",
	MPIAlltoall:  "MPI_Alltoall",
	MPIWaitall:   "MPI_Waitall",
	MPIIsend:     "MPI_Isend",
	MPIIrecv:     "MPI_Irecv",
}

// AllMPIOps returns every defined operation except the exit marker.
func AllMPIOps() []MPIOp {
	out := make([]MPIOp, 0, int(maxMPIOp))
	for op := MPISend; op <= maxMPIOp; op++ {
		out = append(out, op)
	}
	return out
}

// String names the MPI operation.
func (op MPIOp) String() string {
	if n, ok := mpiOpNames[op]; ok {
		return n
	}
	return fmt.Sprintf("MPI_Op_%d", int64(op))
}

// Event is a punctual instrumentation record. Probes read the hardware
// counters when they fire (as Extrae's PAPI integration does), so events
// optionally carry a counter snapshot; burst extraction differences the
// snapshots at burst boundaries.
type Event struct {
	Rank        int32
	Time        Time
	Type        EventType
	Value       int64
	HasCounters bool
	Counters    counters.Values
}

// Sample is one sampler interrupt: a hardware-counter snapshot (absolute,
// monotone per rank) plus the captured call stack, innermost frame first.
// Stack frames are region ids resolvable through Metadata.Regions.
type Sample struct {
	Rank     int32
	Time     Time
	Counters counters.Values
	Stack    []uint32
}

// Comm is a point-to-point message record.
type Comm struct {
	Src, Dst           int32
	SendTime, RecvTime Time
	Size               int64
	Tag                int32
}

// Metadata describes the traced run.
type Metadata struct {
	// App is the application name (e.g. "stencil").
	App string
	// Ranks is the number of MPI ranks.
	Ranks int
	// Duration is the virtual end time of the run.
	Duration Time
	// SamplePeriod is the nominal sampler period (0 when sampling was off).
	SamplePeriod Time
	// Seed is the simulator RNG seed, recorded for reproducibility.
	Seed uint64
	// Regions names the user-region / call-stack-frame ids.
	Regions map[uint32]string
	// Params records free-form generator parameters (sizes, iteration
	// counts, noise levels) for provenance.
	Params map[string]string
}

// RegionName resolves a region id to its name, or a placeholder.
func (m *Metadata) RegionName(id uint32) string {
	if n, ok := m.Regions[id]; ok {
		return n
	}
	return fmt.Sprintf("region_%d", id)
}

// Trace is a complete trace: metadata plus record streams. Each stream is
// globally sorted by (Time, Rank); use Build or Sort to establish the
// invariant.
type Trace struct {
	Meta    Metadata
	Events  []Event
	Samples []Sample
	Comms   []Comm
}

// Sort establishes the canonical record order: ascending (Time, Rank) and,
// for coincident events of one rank, preserving insertion order (stable).
// Comms order by (SendTime, Src) the same way.
func (tr *Trace) Sort() {
	SortStable(tr.Events, func(e *Event) (Time, int32) { return e.Time, e.Rank })
	SortStable(tr.Samples, func(s *Sample) (Time, int32) { return s.Time, s.Rank })
	SortStable(tr.Comms, func(c *Comm) (Time, int32) { return c.SendTime, c.Src })
}

// Key is a record's place in the canonical order, by Time and then Rank;
// Seq is the record's index in arrival order.
type Key struct {
	Time Time
	Rank int32
	Seq  int
}

// SortKeys sorts keys, given in arrival order, into canonical order: a
// stable sort by (Time, Rank), so ties keep arrival order. Records
// usually arrive nearly in order, which an insertion-based stable sort
// passes over quickly.
func SortKeys(keys []Key) {
	slices.SortStableFunc(keys, func(a, b Key) int {
		if a.Time != b.Time {
			return cmp.Compare(a.Time, b.Time)
		}
		return cmp.Compare(a.Rank, b.Rank)
	})
}

// SortStable orders recs stably by the (time, rank) key gives each
// record. Only the keys are sorted; each record then moves once, along
// the cycles of the resulting permutation. Records already in order are
// left as they are, without allocating.
func SortStable[T any](recs []T, key func(*T) (Time, int32)) {
	var pt Time
	var pr int32
	for i := range recs {
		t, r := key(&recs[i])
		if i > 0 && (t < pt || t == pt && r < pr) {
			sortStable(recs, key)
			return
		}
		pt, pr = t, r
	}
}

func sortStable[T any](recs []T, key func(*T) (Time, int32)) {
	keys := make([]Key, len(recs))
	for i := range recs {
		t, r := key(&recs[i])
		keys[i] = Key{Time: t, Rank: r, Seq: i}
	}
	SortKeys(keys)
	// Slot j takes the record that arrived at keys[j].Seq; a slot is done
	// once its Seq is set to -1.
	for i := range keys {
		if keys[i].Seq < 0 {
			continue
		}
		held := recs[i]
		j := i
		for {
			src := keys[j].Seq
			keys[j].Seq = -1
			if src == i {
				recs[j] = held
				break
			}
			recs[j] = recs[src]
			j = src
		}
	}
}

// EventsOfRank returns the rank's events in time order, allocating a new
// slice. The trace must be sorted.
func (tr *Trace) EventsOfRank(rank int32) []Event {
	var out []Event
	for _, e := range tr.Events {
		if e.Rank == rank {
			out = append(out, e)
		}
	}
	return out
}

// SamplesOfRank returns the rank's samples in time order, allocating a new
// slice. The trace must be sorted.
func (tr *Trace) SamplesOfRank(rank int32) []Sample {
	var out []Sample
	for _, s := range tr.Samples {
		if s.Rank == rank {
			out = append(out, s)
		}
	}
	return out
}

// Stats summarizes a trace for reports and sanity checks.
type Stats struct {
	Events, Samples, Comms int
	Duration               Time
	SamplesPerRank         float64
}

// Stats computes summary statistics.
func (tr *Trace) Stats() Stats {
	s := Stats{
		Events:   len(tr.Events),
		Samples:  len(tr.Samples),
		Comms:    len(tr.Comms),
		Duration: tr.Meta.Duration,
	}
	if tr.Meta.Ranks > 0 {
		s.SamplesPerRank = float64(len(tr.Samples)) / float64(tr.Meta.Ranks)
	}
	return s
}
