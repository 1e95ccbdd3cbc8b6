package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/foldsvc"
	"repro/internal/obs"
	"repro/internal/trace"
)

// coverTimeout bounds the wait for the snapshot that covers the last
// append once every append has been acknowledged.
const coverTimeout = 60 * time.Second

// appendEvery is the live-session schedule: the appends are due every
// 100 ms, whatever the run length.
const appendEvery = 100 * time.Millisecond

// liveEnv is a running in-process daemon on a loopback listener,
// journaling sessions to its own directory, with one open session and
// the client that feeds it.
type liveEnv struct {
	srv    *foldsvc.Server
	hs     *http.Server
	served chan struct{}
	dir    string
	base   string
	tr     *http.Transport
	hc     *http.Client
	reg    *obs.Registry
	cs     *foldsvc.ClientSession
	once   sync.Once
}

// startLive starts the daemon and opens a session with default options.
func startLive(ctx context.Context, tmp string) (*liveEnv, error) {
	dir, err := os.MkdirTemp(tmp, "session-")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &liveEnv{
		srv:    foldsvc.NewServer(foldsvc.Config{SessionDir: dir}),
		served: make(chan struct{}),
		dir:    dir,
		base:   "http://" + ln.Addr().String(),
		// At most two connections: one for appends, one for the events.
		tr:  &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		reg: obs.NewRegistry(),
	}
	e.hs = &http.Server{Handler: e.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	e.hc = &http.Client{Transport: e.tr}
	client, err := foldsvc.NewClient(foldsvc.ClientConfig{BaseURL: e.base, HTTPClient: e.hc, Registry: e.reg})
	if err == nil {
		e.cs, err = client.OpenSession(ctx, nil)
	}
	if err != nil {
		e.stop()
		return nil, fmt.Errorf("open session: %w", err)
	}
	return e, nil
}

// stop drains the daemon (ending the session's event stream), shuts the
// listener down, waits for Serve to return and removes the journal.
func (e *liveEnv) stop() {
	e.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		e.srv.StartDrain(ctx)
		if err := e.hs.Shutdown(ctx); err != nil {
			e.hs.Close()
		}
		<-e.served
		e.tr.CloseIdleConnections()
		os.RemoveAll(e.dir)
	})
}

// appendSeen is one append as the appender saw it, in seconds since the
// schedule began.
type appendSeen struct {
	due, ack, late float64
	events         int // cumulative session events in the acknowledgement
	err            error
}

// snapSeen is one snapshot as the consumer received it.
type snapSeen struct {
	at     float64
	events int // Records.Events of the snapshot's report
}

// coverage matches every acknowledged append to the first snapshot whose
// Records.Events reaches the append's cumulative Events and that arrived
// no earlier than the append was due. It returns the lag (arrival minus
// due, in seconds) of each covered append and the number of acknowledged
// appends no snapshot covered. Both inputs are in arrival order.
func coverage(appends []appendSeen, snaps []snapSeen) (lags []float64, uncovered int) {
	j := 0
	for _, a := range appends {
		if a.err != nil {
			continue
		}
		for j < len(snaps) && (snaps[j].events < a.events || snaps[j].at < a.due) {
			j++
		}
		if j == len(snaps) {
			uncovered++
			continue
		}
		lags = append(lags, snaps[j].at-a.due)
	}
	return lags, uncovered
}

// runLive measures the live-session workload: one appender sends the
// chunks open-loop every appendEvery while one consumer follows the
// snapshot stream. Afterwards the final snapshot is checked against a
// batch analysis of the whole trace, and batch analyses of its bytes
// fill the rest of the run.
func runLive(ctx context.Context, w *workload, in *input, env *liveEnv, seconds float64, t *tracer, o *outcome) error {
	var mu sync.Mutex
	var snaps []snapSeen
	var final *core.Report
	notify := make(chan struct{}, 1)
	evCtx, stopEvents := context.WithCancel(ctx)
	defer stopEvents()
	evDone := make(chan error, 1)

	if err := clearRSSPeak(); err != nil {
		return fmt.Errorf("reset RSS peak: %w", err)
	}
	m0 := readMem()
	t0 := time.Now()
	go func() {
		evDone <- env.cs.Events(evCtx, 0, func(ev foldsvc.SessionEvent) error {
			at := time.Since(t0).Seconds()
			mu.Lock()
			snaps = append(snaps, snapSeen{at: at, events: int(ev.Report.Records.Events)})
			final = ev.Report
			mu.Unlock()
			select {
			case notify <- struct{}{}:
			default:
			}
			return nil
		})
	}()

	appends := make([]appendSeen, len(in.chunks))
	want := 0
	for i, chunk := range in.chunks {
		due := t0.Add(time.Duration(i) * appendEvery)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		o.attempted++
		a := appendSeen{due: due.Sub(t0).Seconds(), late: time.Since(due).Seconds()}
		res, err := env.cs.Append(ctx, chunk)
		a.ack = time.Since(t0).Seconds()
		if err != nil {
			a.err = err
			o.failed++
			o.fail("append %d: %v", i+1, err)
		} else {
			a.events = res.Events
			want = max(want, res.Events)
		}
		appends[i] = a
	}

	// Wait for the snapshot that covers the last acknowledged append.
	timeout := time.NewTimer(coverTimeout)
	defer timeout.Stop()
	var evErr error
	streamEnded := false
wait:
	for {
		mu.Lock()
		covered := len(snaps) > 0 && snaps[len(snaps)-1].events >= want
		mu.Unlock()
		if covered {
			break
		}
		select {
		case <-notify:
		case evErr = <-evDone:
			streamEnded = true
			break wait
		case <-timeout.C:
			break wait
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	stopEvents()
	if !streamEnded {
		<-evDone
	} else {
		o.fail("event stream ended early: %v", evErr)
	}
	m1 := readMem()
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}

	lags, uncovered := coverage(appends, snaps)
	if uncovered > 0 {
		o.failed += uncovered
		o.fail("%d acknowledged appends were never covered by a snapshot", uncovered)
	}
	var acks, lates []float64
	for _, a := range appends {
		if a.err == nil {
			acks = append(acks, 1000*(a.ack-a.due))
		}
		lates = append(lates, 1000*a.late)
	}
	if p, ok := tailPercentile(len(lags)); !ok || p < 90 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d covered appends; p90 lag has fewer than ten samples beyond it\n", len(lags))
	}
	for i := range lags {
		lags[i] *= 1000
	}

	prom, err := scrape(ctx, env.hc, env.base+"/metrics")
	if err != nil {
		return fmt.Errorf("scrape daemon metrics: %w", err)
	}
	var buf bytes.Buffer
	if err := env.reg.WritePrometheus(&buf); err != nil {
		return err
	}
	clientProm, err := parseProm(&buf)
	if err != nil {
		return err
	}
	env.stop()

	v := o.values
	v["alloc_mb"] = mb(m1.alloc-m0.alloc) / float64(len(in.chunks))
	v["peak_rss_mb"] = peak
	v["lag_p50_ms"] = percentile(lags, 50)
	v["lag_p90_ms"] = percentile(lags, 90)
	v["session.append_p50_ms"] = percentile(acks, 50)
	v["session.append_p90_ms"] = percentile(acks, 90)
	v["session.snapshots"] = prom["foldsvc_session_snapshots_total"]
	v["session.snapshots_per_append"] = prom["foldsvc_session_snapshots_total"] / float64(len(in.chunks))
	v["session.dropped"] = prom["foldsvc_session_snapshots_dropped_total"]
	v["session.fsync_mean_ms"] = 0
	if n := prom["foldsvc_session_journal_fsync_seconds_count"]; n > 0 {
		v["session.fsync_mean_ms"] = 1000 * prom["foldsvc_session_journal_fsync_seconds_sum"] / n
	}
	v["foldsvc.client_retries"] = clientProm["foldsvc_client_retries_total"]
	v["bench.generator_late_ms"] = percentile(lates, 100)

	var finalSum [sha256.Size]byte
	v["fold_error_pct"] = 0
	if final == nil {
		o.fail("no snapshot arrived")
	} else {
		pct, problems := checkReport(final, in.kernels)
		v["fold_error_pct"] = pct
		for _, p := range problems {
			o.fail("final snapshot: %s", p)
		}
		if finalSum, err = digest(final); err != nil {
			o.fail("final snapshot does not encode: %v", err)
		}
	}
	return afterLive(ctx, w, in, finalSum, t0.Add(time.Duration(seconds*float64(time.Second))), t, o)
}

// afterLive checks the final snapshot against a batch core.AnalyzeContext
// of the whole accumulated trace, as a session snapshot analyzes it, and
// times analyses of the trace's bytes: AnalyzeStreamContext repeats until
// deadline (the untraced analyze_s), or, when traced, one traced round
// and the layer probes, whose core.AnalyzeContext probe is the checked
// analysis.
func afterLive(ctx context.Context, w *workload, in *input, finalSum [sha256.Size]byte, deadline time.Time, t *tracer, o *outcome) error {
	opts := w.opts
	if t != nil {
		st, err := tracedRounds(ctx, in, opts, time.Now(), t, o)
		if err != nil {
			return err
		}
		layerValues(t, &st.lc, median(st.analyze), o)
		whole, err := probeLayers(ctx, t, in.enc, opts, st.rep, st.part, o)
		if err != nil {
			return err
		}
		checkFinal(whole, finalSum, o)
		return nil
	}

	tr, err := trace.ReadFrom(bytes.NewReader(in.enc))
	if err != nil {
		return fmt.Errorf("decode whole trace: %w", err)
	}
	whole, err := core.AnalyzeContext(ctx, tr, opts)
	if err != nil {
		o.attempted++
		o.failed++
		o.fail("core.AnalyzeContext: %v", err)
	} else {
		checkFinal(whole, finalSum, o)
	}
	var analyze []float64
	var first [sha256.Size]byte
	for op := 1; op <= minOps || time.Now().Before(deadline); op++ {
		o.attempted++
		start := time.Now()
		rep, err := core.AnalyzeStreamContext(ctx, bytes.NewReader(in.enc), opts)
		if err != nil {
			o.failed++
			o.fail("AnalyzeStreamContext %d: %v", op, err)
			continue
		}
		analyze = append(analyze, time.Since(start).Seconds())
		if !checkRepeat(rep, in, op, &first, o) {
			o.failed++
		}
	}
	o.values["analyze_s"] = median(analyze)
	return nil
}

// checkFinal counts the batch core.AnalyzeContext of the whole trace as
// an operation that fails unless its report equals the final snapshot.
func checkFinal(rep *core.Report, finalSum [sha256.Size]byte, o *outcome) {
	o.attempted++
	sum, err := digest(rep)
	if err != nil || sum != finalSum {
		o.failed++
		o.fail("core.AnalyzeContext report differs from the final snapshot")
	}
}

// scrape fetches a Prometheus text endpoint.
func scrape(ctx context.Context, hc *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return parseProm(resp.Body)
}

// parseProm reads Prometheus text exposition into series -> value, the
// series key being the name with its label set as written.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metric line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metric line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
