package core

import "repro/internal/trace"

// ShardSpec places one shard in a split analysis (0 <= Index < Count).
// Every shard but the first starts after the trace origin, so a rank's
// first MPI event in it may legally be an exit (the head of a call the
// previous shard opened).
type ShardSpec struct {
	Index, Count int
}

// WholeSpec is the spec of an unsharded analysis — the identity split.
func WholeSpec() ShardSpec {
	return ShardSpec{Index: 0, Count: 1}
}

// Shard is one piece of a split trace, ready for MapShardContext.
type Shard struct {
	Spec  ShardSpec
	Trace *trace.Trace
}

// Split partitions a trace into n shards for map/reduce analysis by
// cutting the virtual timeline into n equal windows. Shard metadata
// keeps the original rank count and duration — shards share the
// virtual timeline; only the record sets are partitioned — and each
// record lands in exactly one shard. Each window boundary resolves per
// rank to the rank's first MPI exit at or after it. The exit itself
// starts the next shard (it becomes the shard's head: the burst it
// opens, and the baseline it carries, belong wholly to that shard), and
// every other record stays with the rank's current shard, so no burst
// and no profile span is ever split. Samples and comms follow the same
// per-rank (per-sender for comms) resolved boundaries; a record whose
// rank is outside the metadata's range stays in shard 0.
//
// A shard with no records is still a valid (identity) input to
// MapShardContext.
// Split does not mutate tr; shard record slices are fresh, metadata maps
// are shared read-only.
func Split(tr *trace.Trace, n int) []Shard {
	if n < 1 {
		n = 1
	}
	shards := make([]Shard, n)
	bound := make([]trace.Time, n)
	for k := range shards {
		shards[k].Spec = ShardSpec{Index: k, Count: n}
		shards[k].Trace = &trace.Trace{Meta: tr.Meta}
		bound[k] = trace.Time(int64(tr.Meta.Duration) * int64(k) / int64(n))
	}

	type adv struct {
		shard int
		at    trace.Time
	}
	ranks := max(tr.Meta.Ranks, 0)
	inRange := func(r int32) bool { return r >= 0 && int(r) < ranks }
	cur := make([]int, ranks)
	// advances[r] records, in order, each shard the rank actually entered
	// and the head-exit time that opened it; samples and comms replay it.
	advances := make([][]adv, ranks)

	for _, e := range tr.Events {
		k := 0
		if r := e.Rank; inRange(r) {
			if e.Type == trace.EvMPI && e.Value == 0 {
				moved := false
				for cur[r]+1 < n && e.Time >= bound[cur[r]+1] {
					cur[r]++
					moved = true
				}
				if moved {
					advances[r] = append(advances[r], adv{cur[r], e.Time})
				}
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
		if !inRange(r) {
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
	clear(ptr)
	for _, c := range tr.Comms {
		t := shards[at(c.Src, c.SendTime)].Trace
		t.Comms = append(t.Comms, c)
	}
	return shards
}
