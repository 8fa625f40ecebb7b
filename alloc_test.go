package hsq_test

import (
	"runtime"
	"testing"

	"repro"
	"repro/internal/workload"
)

// TestObserveSliceZeroAlloc gates the ingest hot path: once the engine's
// batch buffer and the GK sketch's tuple/pending/scratch buffers have grown
// to their working-set size, ObserveSlice must not allocate. Synchronous
// maintenance is required — endStepSync retains the batch buffer's capacity
// across steps, while deferred modes hand the buffer to the sealed step and
// start a fresh one.
func TestObserveSliceZeroAlloc(t *testing.T) {
	eng, err := hsq.New(hsq.Config{
		Epsilon: 0.01, Kappa: 10, Backend: "mem", Maintenance: "sync",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close() //nolint:errcheck

	gen := workload.NewUniform(99)
	// Warm up: one large step grows every buffer past anything the
	// measurement loop will need, then EndStep resets lengths while keeping
	// capacities.
	eng.ObserveSlice(workload.Fill(gen, 100_000))
	if _, err := eng.EndStep(); err != nil {
		t.Fatal(err)
	}

	chunk := workload.Fill(gen, 100)
	allocs := testing.AllocsPerRun(50, func() {
		eng.ObserveSlice(chunk)
	})
	if allocs != 0 {
		t.Fatalf("ObserveSlice allocated %.1f times per call after warmup, want 0", allocs)
	}
}

// TestQuantileQuickAllocs gates the quick response with every step sealed
// into the warehouse and no live values: after the first call has built
// the pinned version's historical TS, a QuantileQuick is a snapshot plus
// one binary search over that cached TS — at most 4 allocations and under
// 1 KB per call.
func TestQuantileQuickAllocs(t *testing.T) {
	eng, err := hsq.New(hsq.Config{
		Epsilon: 0.01, Kappa: 10, Backend: "mem", Maintenance: "sync",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close() //nolint:errcheck

	gen := workload.NewUniform(7)
	for step := 0; step < 12; step++ {
		eng.ObserveSlice(workload.Fill(gen, 20_000))
		if _, err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.QuantileQuick(0.5); err != nil {
		t.Fatal(err)
	}

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := eng.QuantileQuick(0.99); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides the measured runs.
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	if allocs > 4 || bytes >= 1024 {
		t.Fatalf("QuantileQuick: %.1f allocs and %.0f B per call, want ≤ 4 allocs and < 1 KB", allocs, bytes)
	}
}
