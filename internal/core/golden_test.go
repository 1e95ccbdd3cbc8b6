package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/trace"
)

// goldenReportDigest is the SHA-256 of the JSON Report, stage walls
// zeroed, that TestReportGoldenDigest's run produces. A change to it is
// a change to analysis output: record the new value only when the
// output is meant to change.
const goldenReportDigest = "0a03b9cd144e37f5dcf19c8adde6bcd2761cf91b07ea651cd34b273fa65e439b"

// TestReportGoldenDigest pins the whole report of a small fine-sampled
// cg run bit for bit, so engine refactors that must not change results
// (fold ordering, pruning, fan-out) are checked against a fixed answer
// rather than against a reference implementation kept alive for the
// purpose.
func TestReportGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64; other architectures may fuse multiply-adds")
	}
	app, err := apps.ByName("cg", 60)
	if err != nil {
		t.Fatal(err)
	}
	cfg := apps.FineTraceConfig(4)
	cfg.Seed = 1
	tr, err := sim.Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Pipeline {
		rep.Pipeline[i].Wall = 0
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != goldenReportDigest {
		t.Fatalf("report digest %s, want %s (%d phases, %d bytes of JSON)",
			got, goldenReportDigest, len(rep.Phases), len(data))
	}
}

// goldenDigests pins whole Reports for the engine's main paths, keyed
// by case: exact analysis per app (batch and streaming hash equal),
// online streaming per app, and salvage of a truncated and a bit-flipped
// stencil encoding. Each is the SHA-256 of the JSON Report with stage
// walls and byte counts zeroed. Like goldenReportDigest, a change here
// is a change to analysis output.
var goldenDigests = map[string]string{
	"exact/stencil":     "fded49bf200f29538430224aa56abc2f1a0c03f4b696cc3c5f47c86f233183ce",
	"exact/nbody":       "ab3a134935916b404e80604599e8d916e3e135f5031e109ba07a68b21333ef6d",
	"exact/cg":          "dea6dbddf575f2764e34916d27fdb067a44574bf2edf5a62eb5e01f4f2b03658",
	"exact/wavefront":   "d5711cbe8b77cf9cae464b4a7d5e17e64a9db84ca3c4157f3f5b2feae164f4f0",
	"online/stencil":    "71c2b724ff4dd848160a955ab2b9b2c12453d5b18d355b04a149809df6ac7fc2",
	"online/nbody":      "e0b0e4463a9bc8a8a41d2f58be0579f2fc27f5643328c0d1406f62977e017ba5",
	"online/cg":         "1e453fab16c8881f51d1181daf5e6c299a17fe7815ae390cf10fbf786338fbe3",
	"online/wavefront":  "a68ae0c973f461a72841a547798afa7de75997fcca5d30a06992966f0651c163",
	"lenient/truncated": "bf26afa0ec01c1095012fce928b02afbba5566ce17e4b4f1bb268b16a647ca98",
	"lenient/bitflip":   "236e27192a8f3d3bb3419ff2f53e0f1246b23942733a066917d085ef8716a27e",
}

// reportDigest hashes rep's JSON with the run-varying stage walls and
// the source-dependent byte counts zeroed.
func reportDigest(t *testing.T, rep *Report) string {
	t.Helper()
	for i := range rep.Pipeline {
		rep.Pipeline[i].Wall, rep.Pipeline[i].Bytes = 0, 0
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestReportGoldenDigestTable checks every goldenDigests case: 4-rank,
// 60-iteration runs of each app under the default trace configuration.
func TestReportGoldenDigestTable(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; other architectures may fuse multiply-adds")
	}
	ctx := context.Background()
	check := func(t *testing.T, name string, rep *Report, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := reportDigest(t, rep); got != goldenDigests[name] {
			t.Errorf("%s: report digest %s, want %s", name, got, goldenDigests[name])
		}
	}
	encode := func(t *testing.T, name string) []byte {
		t.Helper()
		app, err := apps.ByName(name, 60)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := sim.Run(apps.DefaultTraceConfig(4), app)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	online := Options{Stream: StreamOptions{Online: true, TrainBursts: 64}}

	for _, name := range apps.Names() {
		enc := encode(t, name)
		tr, err := trace.ReadFrom(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := AnalyzeContext(ctx, tr, Options{})
		check(t, "exact/"+name, rep, err)
		rep, err = AnalyzeStreamContext(ctx, bytes.NewReader(enc), Options{})
		check(t, "exact/"+name, rep, err)
		rep, err = AnalyzeStreamContext(ctx, bytes.NewReader(enc), online)
		check(t, "online/"+name, rep, err)
	}

	enc := encode(t, "stencil")
	flip := append([]byte(nil), enc...)
	flip[len(flip)/2] ^= 0x40
	for name, data := range map[string][]byte{
		"lenient/truncated": enc[:len(enc)*3/5],
		"lenient/bitflip":   flip,
	} {
		rep, err := AnalyzeStreamContext(ctx, bytes.NewReader(data), Options{Lenient: true})
		check(t, name, rep, err)
	}
}
