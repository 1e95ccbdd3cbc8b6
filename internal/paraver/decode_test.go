package paraver

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/counters"
	"repro/internal/trace"
)

// Decode is the oracle TestRoundTrip checks Encode against: a parser of
// the .prv subset Encode writes.

// ErrBadFormat is wrapped by all decode errors.
var ErrBadFormat = errors.New("paraver: malformed .prv data")

func eventTypeFromNumber(n int64) (trace.EventType, bool) {
	switch n {
	case TypeMPI:
		return trace.EvMPI, true
	case TypeRegion:
		return trace.EvRegion, true
	case TypeIteration:
		return trace.EvIteration, true
	case TypeOracle:
		return trace.EvOracle, true
	}
	if n >= 1_000_000 && n < 1_000_256 {
		return trace.EventType(n - 1_000_000), true
	}
	return 0, false
}

// Decode parses a .prv-style stream produced by Encode. Region names and
// generator parameters are not present in the .prv body; the returned
// trace's metadata contains only App ("prv"), Ranks and Duration.
func Decode(r io.Reader) (*trace.Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: missing header", ErrBadFormat)
	}
	header := sc.Text()
	if !strings.HasPrefix(header, "#Paraver") {
		return nil, fmt.Errorf("%w: bad header %q", ErrBadFormat, header)
	}
	tr := &trace.Trace{Meta: trace.Metadata{
		App:     "prv",
		Regions: map[uint32]string{},
		Params:  map[string]string{},
	}}
	// Header: "#Paraver (generated):<dur>_ns:1(<ranks>):1:<ranks>"
	hp := strings.SplitN(header, ":", 3)
	if len(hp) >= 2 {
		durStr := strings.TrimSuffix(hp[1], "_ns")
		if d, err := strconv.ParseInt(durStr, 10, 64); err == nil {
			tr.Meta.Duration = trace.Time(d)
		}
	}
	if i := strings.Index(header, "("); i >= 0 {
		if j := strings.Index(header[i:], ")"); j > 1 {
			if n, err := strconv.Atoi(header[i+1 : i+j]); err == nil {
				tr.Meta.Ranks = n
			}
		}
	}
	// The leading "(generated)" also contains parens; pick the *second*
	// group if the first failed to parse as an int. Simpler: scan all
	// groups and keep the last valid one.
	tr.Meta.Ranks = lastParenInt(header, tr.Meta.Ranks)

	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ":")
		kind := fields[0]
		switch kind {
		case "2":
			if err := decodeEventRecord(tr, fields, line); err != nil {
				return nil, err
			}
		case "3":
			if err := decodeCommRecord(tr, fields, line); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: line %d: unsupported record kind %q", ErrBadFormat, line, kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	tr.Sort()
	if tr.Meta.Ranks == 0 {
		// Infer from records when the header was unparseable.
		maxRank := int32(-1)
		for _, e := range tr.Events {
			if e.Rank > maxRank {
				maxRank = e.Rank
			}
		}
		for _, s := range tr.Samples {
			if s.Rank > maxRank {
				maxRank = s.Rank
			}
		}
		tr.Meta.Ranks = int(maxRank + 1)
	}
	return tr, nil
}

func lastParenInt(s string, fallback int) int {
	res := fallback
	for i := 0; i < len(s); i++ {
		if s[i] != '(' {
			continue
		}
		j := strings.Index(s[i:], ")")
		if j < 0 {
			break
		}
		if n, err := strconv.Atoi(s[i+1 : i+j]); err == nil && n > 0 {
			res = n
		}
		i += j
	}
	return res
}

func decodeEventRecord(tr *trace.Trace, fields []string, line int) error {
	// 2:cpu:appl:task:thread:time:type:value[:type:value]...
	if len(fields) < 8 || (len(fields)-6)%2 != 0 {
		return fmt.Errorf("%w: line %d: event record has %d fields", ErrBadFormat, line, len(fields))
	}
	ints := make([]int64, len(fields)-1)
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return fmt.Errorf("%w: line %d: field %q: %v", ErrBadFormat, line, f, err)
		}
		ints[i] = v
	}
	rank := int32(ints[2] - 1) // task - 1
	t := trace.Time(ints[4])
	pairs := ints[5:]

	// Split the type/value pairs into counters, stack frames and events.
	var sample trace.Sample
	sample.Rank = rank
	sample.Time = t
	hasCounters := false
	type frame struct {
		depth int
		id    uint32
	}
	var frames []frame
	var events []trace.Event
	for i := 0; i+1 < len(pairs); i += 2 {
		typ, val := pairs[i], pairs[i+1]
		switch {
		case typ >= TypeCounter0 && typ < TypeCounter0+int64(counters.NumCounters):
			sample.Counters[typ-TypeCounter0] = val
			hasCounters = true
		case typ >= TypeStack0 && typ < TypeStack0+1024:
			frames = append(frames, frame{depth: int(typ - TypeStack0), id: uint32(val)})
		default:
			et, ok := eventTypeFromNumber(typ)
			if !ok {
				return fmt.Errorf("%w: line %d: unknown event type %d", ErrBadFormat, line, typ)
			}
			events = append(events, trace.Event{Rank: rank, Time: t, Type: et, Value: val})
		}
	}
	switch {
	case len(events) > 0:
		// A punctual event line; a probe that read counters attaches them
		// to its (single) event. Stack frames are only valid on samples.
		if len(frames) > 0 {
			return fmt.Errorf("%w: line %d: stack frames on an event record", ErrBadFormat, line)
		}
		if hasCounters {
			events[0].HasCounters = true
			events[0].Counters = sample.Counters
		}
	case hasCounters:
		sort.Slice(frames, func(i, j int) bool { return frames[i].depth < frames[j].depth })
		for _, f := range frames {
			sample.Stack = append(sample.Stack, f.id)
		}
		tr.Samples = append(tr.Samples, sample)
	case len(frames) > 0:
		return fmt.Errorf("%w: line %d: stack frames without counters", ErrBadFormat, line)
	}
	tr.Events = append(tr.Events, events...)
	return nil
}

func decodeCommRecord(tr *trace.Trace, fields []string, line int) error {
	// 3:cpu:appl:task:thread:stime:stime:rcpu:rappl:rtask:rthread:rtime:rtime:size:tag
	if len(fields) != 15 {
		return fmt.Errorf("%w: line %d: comm record has %d fields, want 15", ErrBadFormat, line, len(fields))
	}
	ints := make([]int64, len(fields)-1)
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return fmt.Errorf("%w: line %d: field %q: %v", ErrBadFormat, line, f, err)
		}
		ints[i] = v
	}
	tr.Comms = append(tr.Comms, trace.Comm{
		Src:      int32(ints[2] - 1),
		Dst:      int32(ints[8] - 1),
		SendTime: trace.Time(ints[4]),
		RecvTime: trace.Time(ints[10]),
		Size:     ints[12],
		Tag:      int32(ints[13]),
	})
	return nil
}
