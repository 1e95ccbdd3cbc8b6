// Package structure detects the temporal structure of an application from
// its clustered bursts: the per-rank sequence of phases, the repeating
// loop body (period detection on the cluster-id sequence — the discrete
// counterpart of the spectral trace analysis this line of work also
// published), and iteration statistics from iteration marker events.
// Folding assumes a repetitive application; this package is how the
// pipeline verifies that assumption and reports what the repetition looks
// like.
package structure

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/burst"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Sequence is one rank's time-ordered phase sequence.
type Sequence struct {
	Rank     int32
	Clusters []int        // cluster id per burst, in time order
	Starts   []trace.Time // burst start times, parallel to Clusters
}

// Sequences groups clustered bursts into per-rank sequences. Noise bursts
// (cluster 0) are skipped: they are debris, not structure.
func Sequences(bursts []burst.Burst) []Sequence {
	// Count each rank's bursts first, so every per-rank slice is
	// allocated once at its final size. The analysis passes its bursts
	// in time order, so each rank's run is already sorted and its sort
	// below is linear; one (Rank, Start) sort of all of them would not be.
	count := map[int32]int{}
	n := 0
	for i := range bursts {
		if bursts[i].Cluster != 0 {
			count[bursts[i].Rank]++
			n++
		}
	}
	ranks := make([]int32, 0, len(count))
	for r := range count {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	byRank := make(map[int32][]int, len(ranks))
	idx := make([]int, n)
	for _, r := range ranks {
		byRank[r], idx = idx[:0:count[r]], idx[count[r]:]
	}
	for i := range bursts {
		if bursts[i].Cluster != 0 {
			r := bursts[i].Rank
			byRank[r] = append(byRank[r], i)
		}
	}
	out := make([]Sequence, 0, len(ranks))
	for _, r := range ranks {
		idx := byRank[r]
		sort.Slice(idx, func(a, b int) bool { return bursts[idx[a]].Start < bursts[idx[b]].Start })
		s := Sequence{Rank: r, Clusters: make([]int, len(idx)), Starts: make([]trace.Time, len(idx))}
		for k, i := range idx {
			s.Clusters[k], s.Starts[k] = bursts[i].Cluster, bursts[i].Start
		}
		out = append(out, s)
	}
	return out
}

// MatchFraction returns the fraction of positions where seq agrees with
// itself shifted by lag — the discrete autocorrelation used for period
// detection. It returns 0 for lags outside (0, len(seq)).
func MatchFraction(seq []int, lag int) float64 {
	n := len(seq) - lag
	if lag <= 0 || n <= 0 {
		return 0
	}
	match := 0
	for i := 0; i < n; i++ {
		if seq[i] == seq[i+lag] {
			match++
		}
	}
	return float64(match) / float64(n)
}

// Period finds the smallest lag p with MatchFraction ≥ threshold,
// scanning lags up to half the sequence length. It returns 0 when the
// sequence is not periodic at the threshold. A threshold of 0 defaults to
// 0.8 — loose enough that occasional structural interruptions (an I/O
// episode every N iterations, a dropped noise burst) don't mask the
// dominant loop body.
func Period(seq []int, threshold float64) int {
	if threshold == 0 {
		threshold = 0.8
	}
	for p := 1; p <= len(seq)/2; p++ {
		if MatchFraction(seq, p) >= threshold {
			return p
		}
	}
	return 0
}

// LoopBody returns the representative repeating unit of a p-periodic
// sequence: the majority cluster id at each position modulo p.
func LoopBody(seq []int, p int) []int {
	if p <= 0 || len(seq) == 0 {
		return nil
	}
	counts := make([]map[int]int, p)
	for i := range counts {
		counts[i] = make(map[int]int)
	}
	for i, c := range seq {
		counts[i%p][c]++
	}
	body := make([]int, p)
	for i, m := range counts {
		best, bestN := 0, -1
		for c, n := range m {
			if n > bestN || (n == bestN && c < best) {
				best, bestN = c, n
			}
		}
		body[i] = best
	}
	return body
}

// Loop summarizes the detected repetition of one rank's sequence.
type Loop struct {
	Rank    int32
	Period  int   // 0 = no repetition detected
	Body    []int // representative unit (len = Period)
	Repeats int   // how many times the body repeats (len/Period)
	Match   float64
}

// DetectLoops runs period detection on every rank's sequence.
func DetectLoops(seqs []Sequence) []Loop {
	out := make([]Loop, 0, len(seqs))
	for _, s := range seqs {
		l := Loop{Rank: s.Rank}
		if p := Period(s.Clusters, 0); p > 0 {
			l.Period = p
			l.Body = LoopBody(s.Clusters, p)
			l.Repeats = len(s.Clusters) / p
			l.Match = MatchFraction(s.Clusters, p)
		}
		out = append(out, l)
	}
	return out
}

// String renders a loop like "[1 2] ×200 (match 99.5%)".
func (l Loop) String() string {
	if l.Period == 0 {
		return fmt.Sprintf("rank %d: no repetition detected", l.Rank)
	}
	parts := make([]string, len(l.Body))
	for i, c := range l.Body {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return fmt.Sprintf("rank %d: [%s] ×%d (match %.1f%%)",
		l.Rank, strings.Join(parts, " "), l.Repeats, 100*l.Match)
}

// SPMDScore quantifies how consistently the ranks execute the same phase
// sequence: each rank's sequence is compared position-wise against the
// longest sequence at the best alignment within ±8 positions (small
// offsets are measurement artifacts — a trace-window cut or a dropped
// noise burst shifts everything downstream — not structural divergence),
// and the mean agreement is returned. 1 means perfectly SPMD; values well
// below 1 indicate MPMD structure or rank-dependent control flow, both of
// which weaken the folding assumption that a cluster's instances are
// interchangeable.
func SPMDScore(seqs []Sequence) float64 {
	if len(seqs) <= 1 {
		return 1
	}
	ref := seqs[0].Clusters
	for _, s := range seqs[1:] {
		if len(s.Clusters) > len(ref) {
			ref = s.Clusters
		}
	}
	if len(ref) == 0 {
		return 1
	}
	const maxShift = 8
	var total float64
	for _, s := range seqs {
		best := 0
		for shift := -maxShift; shift <= maxShift; shift++ {
			m := 0
			for i, c := range s.Clusters {
				if j := i + shift; j >= 0 && j < len(ref) && ref[j] == c {
					m++
				}
			}
			if m > best {
				best = m
			}
		}
		total += float64(best) / float64(len(ref))
	}
	return total / float64(len(seqs))
}

// IterationStats summarizes the main-loop iterations seen through
// EvIteration markers.
type IterationStats struct {
	// Count is the number of complete iterations (per rank; ranks must
	// agree for a valid SPMD trace).
	Count int
	// MeanDuration and CV describe the per-iteration wall time in ns.
	MeanDuration float64
	CV           float64
	// RanksAgree is false when ranks emitted different marker counts.
	RanksAgree bool
}

// Iterations extracts iteration statistics from a trace's EvIteration
// markers. Iteration k spans marker k to marker k+1 on each rank; the
// last marker's span ends at the trace end and is excluded from duration
// statistics.
func Iterations(tr *trace.Trace) IterationStats {
	marks := make(map[int32][]trace.Time)
	for _, e := range tr.Events {
		if e.Type == trace.EvIteration {
			marks[e.Rank] = append(marks[e.Rank], e.Time)
		}
	}
	return IterationsFromMarks(marks)
}

// IterationsFromMarks computes iteration statistics from per-rank
// EvIteration timestamps, the form a streaming consumer accumulates.
// Ranks are visited in sorted order so the floating-point duration
// statistics are deterministic regardless of map insertion history.
func IterationsFromMarks(marks map[int32][]trace.Time) IterationStats {
	st := IterationStats{RanksAgree: true}
	if len(marks) == 0 {
		return st
	}
	ranks := make([]int32, 0, len(marks))
	for r := range marks {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	var durs []float64
	count := -1
	for _, r := range ranks {
		ts := marks[r]
		if count == -1 {
			count = len(ts)
		} else if len(ts) != count {
			st.RanksAgree = false
			if len(ts) < count {
				count = len(ts)
			}
		}
		for i := 1; i < len(ts); i++ {
			durs = append(durs, float64(ts[i]-ts[i-1]))
		}
	}
	st.Count = count
	if len(durs) > 0 {
		st.MeanDuration = stats.Mean(durs)
		if st.MeanDuration > 0 {
			st.CV = stats.StdDev(durs) / st.MeanDuration
		}
	}
	return st
}
