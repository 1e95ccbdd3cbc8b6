package foldsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/obs"
	"repro/internal/rescache"
)

// This file implements POST /v1/diff — cross-run differential analysis
// as a service route. Each side of the comparison is either an uploaded
// trace (multipart fields "a" and "b") or a ?digest_a=/?digest_b=
// reference to a report already in the result cache, so diffing two
// previously analyzed traces costs zero re-analysis. Upload sides share
// the /v1/analyze cache keys: an upload that was analyzed before
// resolves as a hit, and a diff upload warms the cache for later
// /v1/analyze calls. Admission control, body limits (one per side),
// upload timeouts, error mapping and a coordinator's fan-out are
// identical to /v1/analyze.

// handleDiff serves POST /v1/diff.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	// A diff of two references — cached digests or live-session
	// snapshots — reads, never computes, so GET is honest for it;
	// anything carrying a trace upload must POST.
	q := r.URL.Query()
	refd := func(side string) bool {
		return q.Get("digest_"+side) != "" || q.Get("session_"+side) != ""
	}
	if r.Method != http.MethodPost && !(r.Method == http.MethodGet && refd("a") && refd("b")) {
		http.Error(w, `use POST with multipart fields "a" and "b" (traces) and/or ?digest_a=&digest_b= / ?session_a=&session_b= references (GET works when both sides are references)`,
			http.StatusMethodNotAllowed)
		return
	}
	// Same admission as /v1/analyze: one slot covers the whole diff. A
	// refused slot or bad options count as a failed diff; a draining
	// refusal does not.
	w, ctx, opts, done, ok := s.admit(w, r, func() { s.diffOutcome("error") })
	if !ok {
		return
	}
	defer done()

	start := time.Now()
	dopts, err := diffOptionsFromQuery(r)
	if err != nil {
		s.diffOutcome("error")
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	digests := [2]string{q.Get("digest_a"), q.Get("digest_b")}
	sessRefs := [2]string{q.Get("session_a"), q.Get("session_b")}
	var (
		body  *uploadReader
		parts *multipart.Reader
	)
	if !(refd("a") && refd("b")) {
		if s.coord != nil && opts.Stream.Online {
			s.diffOutcome("error")
			http.Error(w, msgOnlineCoordinated, http.StatusBadRequest)
			return
		}
		// Every read of the multipart body, part headers included, goes
		// through one upload reader.
		body = s.upload(w, ctx, r.Body)
		r.Body = io.NopCloser(body)
		parts, err = r.MultipartReader()
		if err != nil {
			s.diffOutcome("error")
			http.Error(w, fmt.Sprintf(
				`sides without a digest or session reference need a multipart body with trace fields "a"/"b": %v`, err),
				http.StatusBadRequest)
			return
		}
	}

	var reports [2]*core.Report
	for i, side := range [2]string{"a", "b"} {
		if digests[i] != "" && sessRefs[i] != "" {
			s.diffOutcome("error")
			http.Error(w, fmt.Sprintf("side %q has both a digest and a session reference; pick one", side),
				http.StatusBadRequest)
			return
		}
		var rep *core.Report
		var status string
		var failed bool
		if sessRefs[i] != "" {
			rep, status, failed = s.resolveDiffSession(w, side, sessRefs[i])
		} else {
			rep, status, failed = s.resolveDiffSide(w, r, ctx, opts, side, digests[i], body, parts)
		}
		if failed {
			s.diffOutcome("error")
			return
		}
		w.Header().Set("Cache-Status-"+side, status)
		reports[i] = rep
	}

	d, err := diff.Compare(reports[0], reports[1], dopts)
	if err != nil {
		s.diffOutcome("error")
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	outcome := "ok"
	if d.DegradedA || d.DegradedB || d.Fallback {
		outcome = "degraded"
	}
	s.diffOutcome(outcome)
	s.reg.Histogram("foldsvc_diff_seconds",
		"Cross-run diff latency in seconds (resolving both sides plus the comparison).",
		nil).Observe(time.Since(start).Seconds())
	s.cfg.Logger.Info("diff done", "appA", d.AppA, "appB", d.AppB,
		"matched", len(d.Matched), "unmatchedA", len(d.UnmatchedA),
		"unmatchedB", len(d.UnmatchedB), "significant", d.Significant(),
		"outcome", outcome, "wall", time.Since(start))

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(d); err != nil {
		s.cfg.Logger.Debug("response write failed", "err", err)
	}
}

// diffOutcome counts one /v1/diff request under its outcome label.
func (s *Server) diffOutcome(outcome string) {
	s.reg.Counter("foldsvc_diff_total",
		"Cross-run diff requests, by outcome (ok, degraded, error).",
		obs.Label{Name: "outcome", Value: outcome}).Inc()
}

// resolveDiffSession produces one side's Report from a live session's
// latest published snapshot — the consumer the diff layer was built
// for: compare an in-flight run against a cached baseline digest while
// the run is still appending. The snapshot Report is immutable once
// published, so no copy is needed.
func (s *Server) resolveDiffSession(w http.ResponseWriter, side, id string) (*core.Report, string, bool) {
	sess, ok := s.sessions.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown session %q for side %q", id, side), http.StatusNotFound)
		return nil, "", true
	}
	sn := sess.Latest()
	if sn == nil {
		http.Error(w, fmt.Sprintf(
			"session %q has published no snapshot yet; append records and retry", id),
			http.StatusNotFound)
		return nil, "", true
	}
	return sn.Report, "session", false
}

// resolveDiffSide produces one side's Report, either from the result
// cache (digest reference — zero re-analysis, hard 404 on a cold
// cache) or by analyzing the next multipart trace upload of parts,
// which reads body, as /v1/analyze does: under its cache keys, and
// through the workers on a coordinator. On failure the response has
// been written and failed is true. status is the Cache-Status header
// value for the side.
func (s *Server) resolveDiffSide(w http.ResponseWriter, r *http.Request, ctx context.Context, opts core.Options, side, digest string, body *uploadReader, parts *multipart.Reader) (rep *core.Report, status string, failed bool) {
	if digest != "" {
		if s.cache == nil {
			http.Error(w, "digest references need the result cache (start foldsvc without a negative cache size)",
				http.StatusBadRequest)
			return nil, "", true
		}
		data, ok := s.cache.Get(rescache.Key("report", digest, opts.Fingerprint()))
		if !ok {
			http.Error(w, fmt.Sprintf(
				"no cached report for digest_%s=%s under these analysis options; POST the trace instead or /v1/analyze it first",
				side, digest), http.StatusNotFound)
			return nil, "", true
		}
		rep = new(core.Report)
		if err := json.Unmarshal(data, rep); err != nil {
			http.Error(w, fmt.Sprintf("cached report for digest_%s does not decode: %v", side, err),
				http.StatusInternalServerError)
			return nil, "", true
		}
		return rep, rescache.Hit.String(), false
	}

	src := "diff-upload-" + side
	part, err := parts.NextPart()
	if err != nil {
		if body.cause != nil {
			s.analyzeError(w, r, src, body.cause)
		} else {
			http.Error(w, fmt.Sprintf(`missing multipart trace field %q: %v`, side, err), http.StatusBadRequest)
		}
		return nil, "", true
	}
	defer part.Close()
	if part.FormName() != side {
		http.Error(w, fmt.Sprintf(`multipart fields must arrive in order "a" then "b" (digest-referenced sides omitted); got %q, want %q`,
			part.FormName(), side), http.StatusBadRequest)
		return nil, "", true
	}

	upload := s.upload(nil, ctx, http.MaxBytesReader(nil, readCloser{part}, s.cfg.MaxBody))
	spooled, sum, ok := s.spoolUpload(w, r, ctx, opts, upload, src)
	if !ok {
		return nil, "", true
	}
	data, status, err := s.cached(ctx, r, rescache.Key("report", sum, opts.Fingerprint()),
		func(cctx context.Context) (rescache.Result, error) {
			return s.analyzeJSON(cctx, r.URL.Query(), bytes.NewReader(spooled), sum, opts, src)
		})
	if err != nil {
		s.analyzeError(w, r, src, err)
		return nil, "", true
	}
	if status == "" {
		status = "bypass"
	}
	rep = new(core.Report)
	if err := json.Unmarshal(data, rep); err != nil {
		http.Error(w, fmt.Sprintf("report for side %q does not decode: %v", side, err),
			http.StatusInternalServerError)
		return nil, "", true
	}
	return rep, status, false
}

// readCloser adapts a multipart part to the io.ReadCloser
// http.MaxBytesReader expects.
type readCloser struct{ io.Reader }

func (readCloser) Close() error { return nil }

// diffOptionsFromQuery maps /v1/diff-specific query parameters onto
// diff.Options — the same knobs the folddiff CLI exposes as flags.
//
//	diff_bins=N radius=F sigma=F noise_floor=F
func diffOptionsFromQuery(r *http.Request) (diff.Options, error) {
	q := r.URL.Query()
	var o diff.Options
	if v := q.Get("diff_bins"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return o, fmt.Errorf("bad diff_bins=%q: want a positive integer", v)
		}
		o.Bins = n
	}
	for name, dst := range map[string]*float64{
		"radius":      &o.MatchRadius,
		"sigma":       &o.SigmaK,
		"noise_floor": &o.NoiseFloor,
	} {
		v := q.Get(name)
		if v == "" {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			return o, fmt.Errorf("bad %s=%q: want a non-negative number", name, v)
		}
		*dst = f
	}
	return o, nil
}
