package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/deepeq"
	"repro/internal/sim"
)

// TestAnalyzeStreamEquivalence is the streaming architecture's central
// contract: analyzing an encoded trace record-by-record with the default
// (exact) stream options produces a Report deep-equal to batch Analyze
// on the decoded trace, for every example application. Batch and stream
// share the same pipeline stages, so this pins the only things that
// differ — the source (in-memory vs decoder) and the sample routing.
func TestAnalyzeStreamEquivalence(t *testing.T) {
	for _, name := range apps.Names() {
		app, err := apps.ByName(name, 60)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := sim.Run(apps.DefaultTraceConfig(4), app)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := AnalyzeContext(context.Background(), tr, Options{})
		if err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		stream, err := AnalyzeStreamContext(context.Background(), &buf, Options{})
		if err != nil {
			t.Fatal(err)
		}

		if want := int64(len(tr.Events)); stream.Records.Events != want {
			t.Errorf("%s: stream consumed %d events, trace has %d", name, stream.Records.Events, want)
		}
		if want := int64(len(tr.Samples)); stream.Records.Samples != want {
			t.Errorf("%s: stream consumed %d samples, trace has %d", name, stream.Records.Samples, want)
		}
		if len(stream.Pipeline) != 4 {
			t.Errorf("%s: %d pipeline stages, want 4", name, len(stream.Pipeline))
		}
		normalizeReport(batch, stream)
		if d := deepeq.Diff(batch, stream); d != "" {
			t.Fatalf("%s: streaming Report differs from batch at %s", name, d)
		}
	}
}

// TestAnalyzeStreamOnline exercises the bounded-memory path: train on a
// prefix, classify the rest, fold incrementally. The result is
// approximate by design, so the test checks structural soundness and
// that the classifier agrees with the full clustering on the vast
// majority of bursts.
func TestAnalyzeStreamOnline(t *testing.T) {
	app, err := apps.ByName("stencil", 120)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(apps.DefaultTraceConfig(4), app)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := AnalyzeContext(context.Background(), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	opts := Options{Stream: StreamOptions{Online: true, TrainBursts: 128}}
	online, err := AnalyzeStreamContext(context.Background(), &buf, opts)
	if err != nil {
		t.Fatal(err)
	}

	if !online.Online {
		t.Fatal("report not marked online")
	}
	if online.TrainErr != "" {
		t.Fatalf("classifier training failed: %s", online.TrainErr)
	}
	if len(online.Phases) == 0 {
		t.Fatal("online analysis found no phases")
	}
	for _, ph := range online.Phases {
		if ph.FoldInstances != nil {
			t.Errorf("phase %d retained fold instances in online mode", ph.ClusterID)
		}
		if ph.Instances == 0 {
			t.Errorf("phase %d has no instances", ph.ClusterID)
		}
		if len(ph.Folds) == 0 && len(ph.FoldErrors) == 0 {
			t.Errorf("phase %d has neither folds nor fold errors", ph.ClusterID)
		}
	}

	// The streamed assignments should agree with the batch clustering on
	// nearly all bursts (both analyses see identical kept bursts, in the
	// same order).
	ba, oa := batch.Clustering.Assign, online.Clustering.Assign
	if len(ba) != len(oa) {
		t.Fatalf("assign length %d vs batch %d", len(oa), len(ba))
	}
	agree := 0
	for i := range ba {
		if ba[i] == oa[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(ba)); frac < 0.8 {
		t.Fatalf("online classifier agrees with batch clustering on only %.0f%% of bursts", 100*frac)
	}
	if online.Clustering.K == 0 || len(online.Clustering.Assign) == 0 {
		t.Fatal("online clustering result is empty")
	}
	for _, a := range oa {
		if a != cluster.Noise && (a < 1 || a > online.Clustering.K) {
			t.Fatalf("online assignment %d outside [1,%d]", a, online.Clustering.K)
		}
	}
}
