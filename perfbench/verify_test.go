package main

import (
	"math"
	"testing"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
)

// TestSelfTest runs the check the benchmark runs before every workload:
// each output check passes a clean sorted result and rejects a copy with
// one corrupted byte.
func TestSelfTest(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-9 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

// TestReplaysSmall drives the layer, spill and service replays on a
// small input, with spans on, so the race detector sees every goroutine
// the benchmark starts.
func TestReplaysSmall(t *testing.T) {
	b := &bench{workload: "test", seed: 1, traced: true, dir: t.TempDir(), tr: newTracer(true), m: metrics{}}
	share := genKeys(dist.RightSkewed, 1, 1, 20_000)
	if err := b.replayLayers(share, comm.U64Codec{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.replaySpill(share); err != nil {
		t.Fatal(err)
	}
	if err := b.replayServe(20_000, 5_000); err != nil {
		t.Fatal(err)
	}
	if b.failures != 0 {
		t.Fatalf("%d replay ops failed", b.failures)
	}
	for _, name := range []string{"lsort.merge_ns_per_key", "transport.tcp_mb_s", "spill.peak_over_budget", "serve.cache_hit_ratio"} {
		if _, ok := b.m[name]; !ok {
			t.Errorf("replays measured no %s", name)
		}
	}
	if b.tr.len() == 0 {
		t.Error("replays recorded no spans")
	}
}
