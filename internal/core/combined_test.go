package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/gk"
	"repro/internal/partition"
)

// referenceBuild is the sort-everything construction of TS that
// BuildPieces and BuildVersion replaced: the union of every piece and
// partition summary sorted by (value, source) — piece j as source −1−j —
// then one sweep accumulating L and U. The merge-onto-base builds must
// reproduce it bit for bit.
func referenceBuild(sums []*partition.Summary, pieces []StreamPiece, eps1, eps2 float64) (values []int64, lower, upper []float64) {
	type item struct {
		v   int64
		src int
	}
	var items []item
	for j, p := range pieces {
		for _, v := range p.SS {
			items = append(items, item{v, -1 - j})
		}
	}
	for si, s := range sums {
		for _, v := range s.Values {
			items = append(items, item{v, si})
		}
	}
	slices.SortFunc(items, func(a, b item) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		default:
			return a.src - b.src
		}
	})
	var streamL, streamU, histL, histU float64
	alphaS := make([]int, len(pieces))
	alphaP := make([]int, len(sums))
	for _, it := range items {
		if it.src < 0 {
			j := -1 - it.src
			em2 := eps2 * float64(pieces[j].M)
			alphaS[j]++
			if alphaS[j] == 1 {
				streamU += 2 * em2
			} else {
				streamL += em2
				streamU += em2
			}
		} else {
			w := float64(sums[it.src].Part.Count) * eps1
			alphaP[it.src]++
			if alphaP[it.src] == 1 {
				histU += w
			} else {
				histL += w
				histU += w
			}
		}
		values = append(values, it.v)
		lower = append(lower, streamL+histL)
		upper = append(upper, streamU+histU)
	}
	return values, lower, upper
}

// assertMatchesReference fails unless c holds exactly the reference TS,
// comparing L and U by their bits.
func assertMatchesReference(t *testing.T, label string, c *Combined, sums []*partition.Summary, pieces []StreamPiece, eps1, eps2 float64) {
	t.Helper()
	values, lower, upper := referenceBuild(sums, pieces, eps1, eps2)
	if c.Len() != len(values) {
		t.Fatalf("%s: TS length %d, want %d", label, c.Len(), len(values))
	}
	for i := range values {
		l, u := c.Bounds(i)
		if c.Value(i) != values[i] ||
			math.Float64bits(l) != math.Float64bits(lower[i]) ||
			math.Float64bits(u) != math.Float64bits(upper[i]) {
			t.Fatalf("%s: TS[%d] = (%d, %v, %v), want (%d, %v, %v)",
				label, i, c.Value(i), l, u, values[i], lower[i], upper[i])
		}
	}
	var n int64
	for _, s := range sums {
		n += s.Part.Count
	}
	for _, p := range pieces {
		n += p.M
	}
	if c.N() != n {
		t.Fatalf("%s: N = %d, want %d", label, c.N(), n)
	}
}

// randomPieces returns up to maxPieces sorted stream pieces drawing from
// [0, span), so values repeat within and across pieces and partitions;
// some pieces are empty.
func randomPieces(rng *rand.Rand, maxPieces int, span int64) []StreamPiece {
	pieces := make([]StreamPiece, rng.Intn(maxPieces+1))
	for j := range pieces {
		ss := make([]int64, rng.Intn(12))
		for i := range ss {
			ss[i] = rng.Int63n(span)
		}
		slices.Sort(ss)
		pieces[j] = StreamPiece{SS: ss, M: 1 + rng.Int63n(5_000)}
	}
	return pieces
}

// TestBuildPiecesMatchesReference checks the sorted-base build against
// the reference over random synthetic sources: duplicate values shared by
// pieces and partitions, several sealed pieces, and empty partitions,
// pieces and source lists.
func TestBuildPiecesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const eps1, eps2 = 0.05, 0.025
	for trial := 0; trial < 500; trial++ {
		span := int64(1 + rng.Intn(60))
		sums := make([]*partition.Summary, rng.Intn(6))
		for i := range sums {
			vs := make([]int64, rng.Intn(15))
			for k := range vs {
				vs[k] = rng.Int63n(span)
			}
			slices.Sort(vs)
			sums[i] = &partition.Summary{Part: &partition.Partition{Count: 1 + rng.Int63n(10_000)}, Values: vs}
		}
		pieces := randomPieces(rng, 4, span)
		c := BuildPieces(sums, pieces, eps1, eps2)
		assertMatchesReference(t, "trial", c, sums, pieces, eps1, eps2)
	}
}

// TestBuildPiecesUnsortedPiece keeps the reference order for a piece whose
// summary arrives unsorted (a ShardSummary decoded from a peer is not
// checked for order).
func TestBuildPiecesUnsortedPiece(t *testing.T) {
	sums := []*partition.Summary{{Part: &partition.Partition{Count: 50}, Values: []int64{2, 4, 6}}}
	pieces := []StreamPiece{{SS: []int64{5, 1, 4}, M: 30}, {SS: []int64{4, 2}, M: 10}}
	c := BuildPieces(sums, pieces, 0.1, 0.05)
	assertMatchesReference(t, "unsorted", c, sums, pieces, 0.1, 0.05)
	if !slices.Equal(pieces[0].SS, []int64{5, 1, 4}) {
		t.Fatalf("build reordered the caller's piece: %v", pieces[0].SS)
	}
}

// TestBuildVersionMatchesReference checks the merge onto a store
// version's cached History against the reference, over real partitions
// with repeated values, for several piece sets per version — the History
// is built once and shared by every build on the version.
func TestBuildVersionMatchesReference(t *testing.T) {
	dev, err := disk.NewManagerOn(disk.NewMemBackend(), 64)
	if err != nil {
		t.Fatal(err)
	}
	const eps1, eps2 = 0.05, 0.025
	store, err := partition.NewStore(dev, partition.Config{Kappa: 3, Eps1: eps1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const span = 200
	for step := 1; step <= 12; step++ {
		batch := make([]int64, 50+rng.Intn(400))
		for i := range batch {
			batch[i] = rng.Int63n(span)
		}
		if _, err := store.AddBatch(batch, step); err != nil {
			t.Fatal(err)
		}
		v := store.Pin()
		for trial := 0; trial < 20; trial++ {
			pieces := randomPieces(rng, 3, span)
			c := BuildVersion(v, pieces, eps2)
			assertMatchesReference(t, "version", c, v.Entries(), pieces, eps1, eps2)
		}
		v.Release()
	}
	if got, want := store.HistoryBuilds(), uint64(12); got != want {
		t.Fatalf("HistoryBuilds = %d, want %d (one per queried version)", got, want)
	}
}

// TestBuildVersionNoPiecesSharesHistory pins the zero-cost path: with no
// piece elements TS is the version's History itself, so repeated builds
// allocate no arrays.
func TestBuildVersionNoPiecesSharesHistory(t *testing.T) {
	dev, err := disk.NewManagerOn(disk.NewMemBackend(), 64)
	if err != nil {
		t.Fatal(err)
	}
	store, err := partition.NewStore(dev, partition.Config{Kappa: 10, Eps1: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 3; step++ {
		batch := make([]int64, 500)
		for i := range batch {
			batch[i] = int64(i * step)
		}
		if _, err := store.AddBatch(batch, step); err != nil {
			t.Fatal(err)
		}
	}
	v := store.Pin()
	defer v.Release()
	h := v.History()
	for _, pieces := range [][]StreamPiece{nil, {{M: 7}}} {
		c := BuildVersion(v, pieces, 0.025)
		if c.Len() != len(h.Values) || &c.values[0] != &h.Values[0] || &c.lower[0] != &h.L[0] || &c.upper[0] != &h.U[0] {
			t.Fatalf("pieces %v: TS does not share the version's History", pieces)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { BuildVersion(v, nil, 0.025) }); allocs > 1 {
		t.Fatalf("BuildVersion without pieces: %.0f allocs, want ≤ 1", allocs)
	}
}

// TestStreamSummaryMatchesPerRankQuery checks the one-sweep StreamSummary
// against its per-rank definition: the exact minimum, then one GK Query
// per rank i·ε₂m + ε₂m/2, sorted.
func TestStreamSummaryMatchesPerRankQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, eps2 := range []float64{0.2, 0.025, 0.0025} {
		for _, m := range []int{1, 3, 500, 20_000} {
			g := gk.MustNew(eps2 / 2)
			for i := 0; i < m; i++ {
				g.Insert(rng.Int63n(int64(m)))
			}
			want := []int64{}
			mn, _ := g.Min()
			want = append(want, mn)
			em := eps2 * float64(m)
			for i := 1; i < beta(eps2); i++ {
				v, _ := g.Query(max(1, min(int64(float64(i)*em+em/2), int64(m))))
				want = append(want, v)
			}
			slices.Sort(want)
			if got := StreamSummary(g, eps2); !slices.Equal(got, want) {
				t.Fatalf("ε₂=%g m=%d: StreamSummary %v, want %v", eps2, m, got, want)
			}
		}
	}
}
