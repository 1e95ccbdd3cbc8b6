package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/counters"
	"repro/internal/deepeq"
	"repro/internal/fit"
	"repro/internal/sim"
	"repro/internal/trace"
)

// golden pins one analysis: report is the SHA-256 of the JSON Report
// with stage walls and byte counts zeroed, cloud that of the in-memory
// clouds the JSON leaves out (cloudDigest). A change to either is a
// change to analysis output: record a new value only when the output is
// meant to change.
type golden struct{ report, cloud string }

// goldenFineCG pins TestReportGoldenDigest's run.
var goldenFineCG = golden{
	report: "922e340e43ea2b794c4be3f9422bc63ea434bb6f8399cae3db92ff7917242728",
	cloud:  "b444be47df4d917852575fd4492e53a2f5820bc23470ff36f04311516174ffa3",
}

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
	rep, err := AnalyzeContext(context.Background(), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fine/cg", rep, goldenFineCG)
}

// goldenDigests pins whole Reports for the engine's main paths, keyed
// by case: exact analysis per app (batch and streaming hash equal),
// online streaming per app, and salvage of a truncated and a bit-flipped
// stencil encoding (streamed, and decoded first then analyzed; the
// bit-flipped one fails validation). The cloud digests were recorded
// when the clouds were still part of the JSON and have not changed
// since.
var goldenDigests = map[string]golden{
	"exact/stencil":     {"4c44715366cca2c96f96e2674dd2e15a234c885109d83ea443a569785a0eda50", "acc35ee009e5d4d5dbdf27bea13fa148ded355daf1422e9413779ae9046e8c73"},
	"exact/nbody":       {"e10f8b44612d8f1705771fc8f14ca098eb3538157eb4cf212cb76e453deddb8d", "a18ac25a71c7de2cb60631afc1bd11e128e2e7ea5db3841951d77ebe0648c2ad"},
	"exact/cg":          {"1edc7e6206714c145f4747648aa6123071ae9e456541ffa9e78e2478073e40fb", "64b2d83c1e184c1369b9a796c031fa2623ee0e0c902cdf4722df373ad487068a"},
	"exact/wavefront":   {"499ad53e570b9ce46842b4621a8e8be710de26c1afeca10e3ec88561b130e6b0", "c20be1d1d2e5a51fdc9c8538f9f4fd486d4886d75229f44e79cec82cf1923ff9"},
	"online/stencil":    {"494bf62c991cb004973c41aebef99a27d73daa43f92c2ae230b624da5186043e", "16d80c9ba4af30123141b28d0b95d0912dbd3e40e2af5f0ccf3b490b69fb1f0f"},
	"online/nbody":      {"8789debab7bf011d838ed8dfbef3786aee5151e1f32db38defd4a1d3bfa95bbd", "0729e5e8fa23b31de386af815d3862ce1e1e989e03a696885c73bdf9b7967bea"},
	"online/cg":         {"0a97b8ca8b4d596ce21f92376dd744ed6be19dbb79879027d13daaf9e803f1d1", "fe2379c15a85a2859c090a8abd497be596620f8150ee030188fa546170e833fa"},
	"online/wavefront":  {"1003a102bd763bcaf68061e26f65abd5758e8716c34970dcc000e337d9cb5d85", "564efe922f3c4e78acd55cf0843ef55accac905aee8fb55e50d362d1cd90fd40"},
	"lenient/truncated": {"4525fdd79face8c6bc9ff006dbd78cd81b7329c08b4361af9a6c50824e5fd86c", "c884cba9386b58b9825b7e0b46961b2ff5906ce287f3168bd74d79bd3bc8dfcc"},
	"lenient/bitflip":   {"dd5055ddb2a231e73d8c39af27a49514556c2c5862af7a543ea822534ecd2ef7", "acc35ee009e5d4d5dbdf27bea13fa148ded355daf1422e9413779ae9046e8c73"},
}

// checkGolden checks rep against want, and that its JSON decodes back to
// rep minus the in-memory handles (NaN bands included). It zeroes the
// run-varying stage walls and the source-dependent byte counts first,
// and clears the handles afterwards.
func checkGolden(t *testing.T, name string, rep *Report, want golden) {
	t.Helper()
	for i := range rep.Pipeline {
		rep.Pipeline[i].Wall, rep.Pipeline[i].Bytes = 0, 0
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want.report {
		t.Errorf("%s: report digest %s, want %s (%d phases, %d bytes of JSON)",
			name, got, want.report, len(rep.Phases), len(data))
	}
	if got := cloudDigest(t, rep); got != want.cloud {
		t.Errorf("%s: cloud digest %s, want %s", name, got, want.cloud)
	}
	var decoded Report
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	rep.Clustering.Features, rep.Clustering.Assign = nil, nil
	for i := range rep.Phases {
		ph := &rep.Phases[i]
		ph.FoldInstances, ph.FoldErrors = nil, nil
		for _, f := range ph.Folds {
			f.Points = nil
		}
	}
	if d := deepeq.Diff(&decoded, rep); d != "" {
		t.Errorf("%s: decoded JSON differs from the in-memory report at %s", name, d)
	}
}

// cloudDigest is the SHA-256 of the JSON of the clouds a Report keeps in
// memory only: the clustering's Features and Assign and every fold's
// Points, phase by phase and counter by counter.
func cloudDigest(t *testing.T, rep *Report) string {
	t.Helper()
	points := make([]map[counters.Counter][]fit.Point, len(rep.Phases))
	for i, ph := range rep.Phases {
		points[i] = make(map[counters.Counter][]fit.Point, len(ph.Folds))
		for c, f := range ph.Folds {
			points[i][c] = f.Points
		}
	}
	data, err := json.Marshal(struct {
		Features [][]float64
		Assign   []int
		Points   []map[counters.Counter][]fit.Point
	}{rep.Clustering.Features, rep.Clustering.Assign, points})
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
		checkGolden(t, name, rep, goldenDigests[name])
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
		tr, st, err := trace.ReadFromLenient(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		rep, err = AnalyzeContext(ctx, tr, Options{Lenient: true})
		if err == nil {
			rep.NoteDecode(st)
		}
		check(t, name, rep, err)
	}
}

// TestReportSizeIndependentOfTraceLength pins the O(phases) report: the
// JSON of stencil 8×800 is within 25% of the size of stencil 8×100's,
// although the longer run folds eight times the samples. A report that
// serialized its clouds grew with them (151 KB against 943 KB).
func TestReportSizeIndependentOfTraceLength(t *testing.T) {
	size := func(iters int) int {
		app, err := apps.ByName("stencil", iters)
		if err != nil {
			t.Fatal(err)
		}
		cfg := apps.DefaultTraceConfig(8)
		cfg.Seed = 1
		tr, err := sim.Run(cfg, app)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := AnalyzeContext(context.Background(), tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	short, long := size(100), size(800)
	if d := math.Abs(float64(long - short)); d >= 0.25*float64(min(short, long)) {
		t.Fatalf("report JSON is %d bytes for 100 iterations and %d for 800", short, long)
	}
	t.Logf("report JSON: %d bytes for 100 iterations, %d for 800", short, long)
}
