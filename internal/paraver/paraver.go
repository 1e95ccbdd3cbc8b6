// Package paraver encodes traces to a simplified Paraver .prv-style text
// format, plus the companion .pcf configuration
// listing event-type and value names. The subset implemented here covers
// what the analysis pipeline needs — punctual events, multi-event sample
// records with counter snapshots and call stacks, and point-to-point
// communications — using the real format's record framing:
//
//	2:cpu:appl:task:thread:time:type:value[:type:value]...   event record
//	3:cpu:appl:task:thread:stime:stime:rcpu:rappl:rtask:rthread:rtime:rtime:size:tag
//
// Ranks map to Paraver tasks (task = rank+1, appl = 1, thread = 1,
// cpu = rank+1). Event-type numbers follow Extrae conventions where one
// exists (50000001 for MPI). Region names and generator parameters are
// carried by the .pcf file, not the .prv body.
package paraver

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/counters"
	"repro/internal/trace"
)

// Event-type numbers used in the .prv encoding.
const (
	TypeMPI       = 50000001 // value: MPIOp id, 0 = exit (Extrae convention)
	TypeRegion    = 60000019 // value: region id, 0 = exit
	TypeIteration = 2000     // value: iteration number
	TypeOracle    = 2001     // value: ground-truth kernel id, 0 = exit
	TypeCounter0  = 42000000 // counter c encoded as TypeCounter0 + c
	TypeStack0    = 30000000 // stack frame at depth d encoded as TypeStack0 + d
)

// Encode writes the trace in .prv-style text form.
func Encode(w io.Writer, tr *trace.Trace) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "#Paraver (generated):%d_ns:1(%d):1:%d\n",
		tr.Meta.Duration, tr.Meta.Ranks, tr.Meta.Ranks)

	// The .prv body must be globally time-ordered; merge the three sorted
	// streams.
	ei, si, ci := 0, 0, 0
	for ei < len(tr.Events) || si < len(tr.Samples) || ci < len(tr.Comms) {
		et, st, ct := trace.Time(1<<62), trace.Time(1<<62), trace.Time(1<<62)
		if ei < len(tr.Events) {
			et = tr.Events[ei].Time
		}
		if si < len(tr.Samples) {
			st = tr.Samples[si].Time
		}
		if ci < len(tr.Comms) {
			ct = tr.Comms[ci].SendTime
		}
		switch {
		case et <= st && et <= ct:
			e := tr.Events[ei]
			ei++
			if e.HasCounters {
				var sb strings.Builder
				fmt.Fprintf(&sb, "2:%d:1:%d:1:%d:%d:%d",
					e.Rank+1, e.Rank+1, e.Time, eventTypeNumber(e.Type), e.Value)
				for c, v := range e.Counters {
					fmt.Fprintf(&sb, ":%d:%d", TypeCounter0+c, v)
				}
				sb.WriteByte('\n')
				bw.WriteString(sb.String())
			} else {
				fmt.Fprintf(bw, "2:%d:1:%d:1:%d:%d:%d\n",
					e.Rank+1, e.Rank+1, e.Time, eventTypeNumber(e.Type), e.Value)
			}
		case st <= ct:
			s := tr.Samples[si]
			si++
			var sb strings.Builder
			fmt.Fprintf(&sb, "2:%d:1:%d:1:%d", s.Rank+1, s.Rank+1, s.Time)
			for c, v := range s.Counters {
				fmt.Fprintf(&sb, ":%d:%d", TypeCounter0+c, v)
			}
			for d, f := range s.Stack {
				fmt.Fprintf(&sb, ":%d:%d", TypeStack0+d, f)
			}
			sb.WriteByte('\n')
			bw.WriteString(sb.String())
		default:
			c := tr.Comms[ci]
			ci++
			fmt.Fprintf(bw, "3:%d:1:%d:1:%d:%d:%d:1:%d:1:%d:%d:%d:%d\n",
				c.Src+1, c.Src+1, c.SendTime, c.SendTime,
				c.Dst+1, c.Dst+1, c.RecvTime, c.RecvTime,
				c.Size, c.Tag)
		}
	}
	return bw.Flush()
}

func eventTypeNumber(t trace.EventType) int64 {
	switch t {
	case trace.EvMPI:
		return TypeMPI
	case trace.EvRegion:
		return TypeRegion
	case trace.EvIteration:
		return TypeIteration
	case trace.EvOracle:
		return TypeOracle
	}
	return 1_000_000 + int64(t)
}

// EncodePCF writes the companion .pcf configuration: event-type names and
// value labels (MPI operations, region names, counters). Paraver uses it to
// label the trace; we emit it for fidelity and for human inspection.
func EncodePCF(w io.Writer, tr *trace.Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "DEFAULT_OPTIONS\n\nLEVEL\tTASK\nUNITS\tNANOSEC\n\n")

	fmt.Fprintf(bw, "EVENT_TYPE\n0\t%d\tMPI call\nVALUES\n", TypeMPI)
	ops := []trace.MPIOp{
		trace.MPINone, trace.MPISend, trace.MPIRecv, trace.MPISendRecv,
		trace.MPIBarrier, trace.MPIAllreduce, trace.MPIBcast, trace.MPIReduce,
		trace.MPIAlltoall, trace.MPIWaitall,
	}
	for _, op := range ops {
		fmt.Fprintf(bw, "%d\t%s\n", int64(op), op)
	}
	fmt.Fprintf(bw, "\nEVENT_TYPE\n0\t%d\tUser region\nVALUES\n0\tEnd\n", TypeRegion)
	ids := make([]uint32, 0, len(tr.Meta.Regions))
	for id := range tr.Meta.Regions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(bw, "%d\t%s\n", id, tr.Meta.Regions[id])
	}
	fmt.Fprintf(bw, "\nEVENT_TYPE\n")
	for c := counters.Counter(0); c < counters.NumCounters; c++ {
		fmt.Fprintf(bw, "7\t%d\t%s\n", TypeCounter0+int(c), c)
	}
	fmt.Fprintf(bw, "\nEVENT_TYPE\n0\t%d\tIteration\n", TypeIteration)
	return bw.Flush()
}
