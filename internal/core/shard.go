package core

import (
	"fmt"

	"repro/internal/trace"
)

// ShardMode selects how Split partitions a trace.
type ShardMode int

const (
	// ShardTime cuts the virtual timeline into equal windows, resolving
	// each cut per rank to the first MPI exit at or after the boundary.
	// Because a compute burst opens at an MPI exit and closes at the next
	// enter, and the resolved exit starts the next shard, every burst
	// lands in exactly one shard.
	ShardTime ShardMode = iota
	// ShardRank partitions ranks into contiguous groups; each shard keeps
	// the full timeline of its ranks.
	ShardRank
)

// String names the mode as the CLIs spell it (-shard-mode flag values).
func (m ShardMode) String() string {
	switch m {
	case ShardTime:
		return "time"
	case ShardRank:
		return "rank"
	}
	return fmt.Sprintf("ShardMode(%d)", int(m))
}

// ParseShardMode parses a -shard-mode flag value ("time", "rank").
func ParseShardMode(s string) (ShardMode, error) {
	switch s {
	case "time", "":
		return ShardTime, nil
	case "rank":
		return ShardRank, nil
	}
	return ShardTime, fmt.Errorf("core: unknown shard mode %q (want time or rank)", s)
}

// ShardSpec identifies one shard of a split analysis.
type ShardSpec struct {
	// Mode is how the trace was partitioned.
	Mode ShardMode
	// Index and Count place this shard in the split (0 <= Index < Count).
	Index, Count int
	// Resume marks a shard that does not start at the trace origin, so a
	// rank's first MPI event may legally be an exit (the head of a call
	// the previous shard opened). Time shards beyond the first set it.
	Resume bool
}

// WholeSpec is the spec of an unsharded analysis — the identity split.
func WholeSpec() ShardSpec {
	return ShardSpec{Mode: ShardTime, Index: 0, Count: 1}
}

// Shard is one piece of a split trace, ready for MapShardContext.
type Shard struct {
	Spec  ShardSpec
	Trace *trace.Trace
}

// Split partitions a trace into n shards for map/reduce analysis. Shard
// metadata keeps the original rank count and duration — shards share the
// virtual timeline; only the record sets are partitioned — and each
// record lands in exactly one shard:
//
//   - ShardTime resolves each window boundary per rank to the rank's
//     first MPI exit at or after it. The exit itself starts the next
//     shard (it becomes the shard's head: the burst it opens, and the
//     baseline it carries, belong wholly to that shard), and every other
//     record stays with the rank's current shard, so no burst and no
//     profile span is ever split. Samples and comms follow the same
//     per-rank (per-sender for comms) resolved boundaries.
//   - ShardRank gives shard k the contiguous rank group
//     [k*R/n, (k+1)*R/n); n is clamped to the rank count.
//
// A shard with no records is still a valid (identity) input to
// MapShardContext.
// Split does not mutate tr; shard record slices are fresh, metadata maps
// are shared read-only.
func Split(tr *trace.Trace, n int, mode ShardMode) []Shard {
	if n < 1 {
		n = 1
	}
	if mode == ShardRank && n > tr.Meta.Ranks {
		n = tr.Meta.Ranks
	}
	shards := make([]Shard, n)
	for k := range shards {
		shards[k].Spec = ShardSpec{Mode: mode, Index: k, Count: n, Resume: mode == ShardTime && k > 0}
		m := tr.Meta
		shards[k].Trace = &trace.Trace{Meta: m}
	}
	if n == 1 {
		shards[0].Trace.Events = append([]trace.Event(nil), tr.Events...)
		shards[0].Trace.Samples = append([]trace.Sample(nil), tr.Samples...)
		shards[0].Trace.Comms = append([]trace.Comm(nil), tr.Comms...)
		return shards
	}
	if mode == ShardRank {
		splitByRank(tr, shards)
	} else {
		splitByTime(tr, shards)
	}
	return shards
}

// splitByRank assigns each record to its rank's contiguous group.
func splitByRank(tr *trace.Trace, shards []Shard) {
	n := len(shards)
	ranks := tr.Meta.Ranks
	of := func(r int32) int {
		if r < 0 {
			return 0
		}
		k := int(r) * n / ranks
		if k >= n {
			k = n - 1
		}
		return k
	}
	for _, e := range tr.Events {
		t := shards[of(e.Rank)].Trace
		t.Events = append(t.Events, e)
	}
	for _, s := range tr.Samples {
		t := shards[of(s.Rank)].Trace
		t.Samples = append(t.Samples, s)
	}
	for _, c := range tr.Comms {
		t := shards[of(c.Src)].Trace
		t.Comms = append(t.Comms, c)
	}
}

// splitByTime cuts the timeline into len(shards) equal windows, resolved
// per rank at MPI exits (see Split).
func splitByTime(tr *trace.Trace, shards []Shard) {
	n := len(shards)
	dur := tr.Meta.Duration
	bound := make([]trace.Time, n)
	for k := 1; k < n; k++ {
		bound[k] = trace.Time(int64(dur) * int64(k) / int64(n))
	}

	type adv struct {
		shard int
		at    trace.Time
	}
	ranks := tr.Meta.Ranks
	cur := make([]int, ranks)
	// advances[r] records, in order, each shard the rank actually entered
	// and the head-exit time that opened it; samples and comms replay it.
	advances := make([][]adv, ranks)

	shardOf := func(r int32) int {
		if r < 0 || int(r) >= ranks {
			return 0
		}
		return cur[r]
	}
	for _, e := range tr.Events {
		k := shardOf(e.Rank)
		if e.Type == trace.EvMPI && e.Value == 0 && int(e.Rank) < ranks {
			r := e.Rank
			moved := false
			for cur[r]+1 < n && e.Time >= bound[cur[r]+1] {
				cur[r]++
				moved = true
			}
			if moved {
				advances[r] = append(advances[r], adv{cur[r], e.Time})
			}
			k = cur[r]
		}
		t := shards[k].Trace
		t.Events = append(t.Events, e)
	}

	// Replay the per-rank advances over the (per-rank time-ordered)
	// samples and comms: a record belongs to the last shard whose head
	// exit is at or before its time.
	ptr := make([]int, ranks)
	at := func(r int32, tm trace.Time) int {
		if r < 0 || int(r) >= ranks {
			return 0
		}
		a := advances[r]
		p := ptr[r]
		for p < len(a) && tm >= a[p].at {
			p++
		}
		ptr[r] = p
		if p == 0 {
			return 0
		}
		return a[p-1].shard
	}
	for _, s := range tr.Samples {
		t := shards[at(s.Rank, s.Time)].Trace
		t.Samples = append(t.Samples, s)
	}
	for r := range ptr {
		ptr[r] = 0
	}
	for _, c := range tr.Comms {
		t := shards[at(c.Src, c.SendTime)].Trace
		t.Comms = append(t.Comms, c)
	}
}
