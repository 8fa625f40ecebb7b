package hsq

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// TestVersionHistoryUnderAsyncInstalls races full-history readers against
// background installs: with async maintenance, a producer Observes and
// EndSteps while readers run QuantileQuick and Quantiles the whole time, so
// installs and merges publish new versions under the readers. Every
// version builds its cached historical TS at most once, every answer stays
// within its bound, and once the readers stop no superseded version is
// left alive.
//
// As in TestConcurrentQueriesDuringBackgroundMerge the stream is 1, 2, 3,
// ..., so the value answered is its own rank: with N_before elements
// observed before a query and N_after after it, the answer must lie within
// the query's rank bound of [φ·N_before, φ·N_after].
func TestVersionHistoryUnderAsyncInstalls(t *testing.T) {
	const eps = 0.05
	steps, batch := 30, 1200
	if testing.Short() {
		steps = 12
	}
	eng, err := New(Config{
		Epsilon: eps, Kappa: 2, Backend: "mem", BlockSize: 512,
		Maintenance: MaintenanceAsync, MaxPendingSteps: envMaxPending(3), MaintenanceWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close() //nolint:errcheck

	var observed atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	// within reports whether v answers φ over an engine that held between
	// nBefore and nAfter elements, with rank error at most slack(nAfter).
	within := func(v int64, phi float64, nBefore, nAfter int64, slack func(n int64) int64) bool {
		s := slack(nAfter) + 2
		return v >= int64(phi*float64(nBefore))-s && v <= int64(math.Ceil(phi*float64(nAfter)))+s
	}
	quickSlack := func(n int64) int64 { return int64(math.Ceil(1.5 * eps * float64(n))) }
	accurateSlack := func(n int64) int64 { return int64(eps * float64(n)) }

	var quickAnswers, multiAnswers atomic.Int64
	wg.Add(2)
	go func() {
		defer wg.Done()
		phis := []float64{0.1, 0.5, 0.9}
		for i := 0; !stop.Load(); i++ {
			nBefore := observed.Load()
			if nBefore == 0 {
				continue
			}
			phi := phis[i%len(phis)]
			v, err := eng.QuantileQuick(phi)
			nAfter := observed.Load()
			if err != nil {
				t.Errorf("QuantileQuick(%g): %v", phi, err)
				return
			}
			if !within(v, phi, nBefore, nAfter, quickSlack) {
				t.Errorf("QuantileQuick(%g) = %d outside its bound (N %d→%d)", phi, v, nBefore, nAfter)
				return
			}
			quickAnswers.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		phis := []float64{0.25, 0.5, 0.95}
		for !stop.Load() {
			nBefore := observed.Load()
			if nBefore == 0 {
				continue
			}
			vs, _, err := eng.Quantiles(phis)
			nAfter := observed.Load()
			if err != nil {
				t.Errorf("Quantiles: %v", err)
				return
			}
			for i, phi := range phis {
				if !within(vs[i], phi, nBefore, nAfter, accurateSlack) {
					t.Errorf("Quantiles φ=%g answered %d outside its bound (N %d→%d)", phi, vs[i], nBefore, nAfter)
					return
				}
			}
			multiAnswers.Add(1)
		}
	}()

	next := int64(1)
	for s := 0; s < steps; s++ {
		for i := 0; i < batch; i++ {
			eng.Observe(next)
			observed.Store(next)
			next++
		}
		if _, err := eng.EndStep(); err != nil {
			t.Fatalf("EndStep %d: %v", s+1, err)
		}
	}
	if err := eng.SyncMaintenance(); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	if quickAnswers.Load() == 0 || multiAnswers.Load() == 0 {
		t.Fatalf("readers answered %d quick and %d multi queries, want both > 0",
			quickAnswers.Load(), multiAnswers.Load())
	}

	// Version sequence numbers start at 1 and grow by one per publish, so
	// the current one counts every version the store ever had.
	v := eng.store.Pin()
	versions := uint64(v.Seq())
	v.Release()
	builds := eng.store.HistoryBuilds()
	t.Logf("%d quick and %d multi answers; %d History builds over %d versions",
		quickAnswers.Load(), multiAnswers.Load(), builds, versions)
	if builds == 0 || builds > versions {
		t.Errorf("HistoryBuilds = %d over %d versions, want between 1 and one per version", builds, versions)
	}
	// Every reader has returned and maintenance is idle, so nothing pins a
	// superseded version any more.
	if live := eng.store.LiveVersions(); live != 1 {
		t.Fatalf("LiveVersions = %d after the readers stopped, want 1", live)
	}
}
