package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
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
