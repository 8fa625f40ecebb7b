// Package core implements the paper's query algorithms over the historical
// summaries (HS), the stream summary (SS), and the on-disk partition store:
// the combined summary TS with its rank bounds L/U (Lemma 2), the quick
// response (Algorithm 5), filter generation (Algorithm 7) and the accurate
// response's value-space bisection with per-partition disk searches
// (Algorithms 6 and 8).
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/gk"
	"repro/internal/partition"
)

// StreamSummary extracts SS from the GK sketch (Algorithm 4,
// StreamSummary): β₂ = ⌈1/ε₂ + 1⌉ elements — the exact stream minimum plus
// the elements at approximate ranks i·ε₂m. The sketch must have been run
// with error parameter ε₂/2; querying rank i·ε₂m + ε₂m/2 with a two-sided
// ±ε₂m/2 guarantee yields exactly Lemma 1's band
// [i·ε₂m, (i+1)·ε₂m] for SS[i].
func StreamSummary(g *gk.Sketch, eps2 float64) []int64 {
	m := g.Count()
	if m == 0 {
		return nil
	}
	ss := make([]int64, beta(eps2))
	ss[0], _ = g.Min()
	em := eps2 * float64(m)
	for i := 1; i < len(ss); i++ {
		ss[i] = max(1, min(int64(float64(i)*em+em/2), m))
	}
	// The ranks ascend, so one sweep answers them all, in ascending order:
	// with the exact minimum first, SS comes out sorted.
	g.QueryRanks(ss[1:])
	return ss
}

// beta returns ⌈1/ε + 1⌉.
func beta(eps float64) int {
	return int(math.Ceil(1.0/eps + 1))
}

// StreamPiece is one memory-resident stream-side source of the combined
// summary: the live GK sketch's summary, or the frozen summary of a batch
// that was sealed at an end-of-step but not yet installed as an on-disk
// partition by background maintenance. Each piece carries Lemma 1's
// one-sided ε₂·M rank bands independently; queries treat every piece like
// "the stream" — estimate-only, no disk probes — so snapshot-isolated reads
// stay correct while installs run behind them.
type StreamPiece struct {
	// SS is the piece's summary (sorted): β₂ elements at approximate ranks
	// i·ε₂·M, as extracted by StreamSummary.
	SS []int64
	// M is the number of elements the piece covers.
	M int64
}

// Combined is TS — the sorted union of all historical summaries and the
// stream-side piece summaries — together with the per-item rank bounds L
// and U of Lemma 2.
type Combined struct {
	values []int64   // TS_i
	lower  []float64 // L_i
	upper  []float64 // U_i

	sums    []*partition.Summary
	streams []StreamPiece

	m     int64 // total stream-side size (Σ piece M)
	histN int64 // historical size
	eps1  float64
	eps2  float64
}

// N returns the total data size n + m.
func (c *Combined) N() int64 { return c.histN + c.m }

// Len returns δ, the number of TS entries.
func (c *Combined) Len() int { return len(c.values) }

// Value returns TS[i].
func (c *Combined) Value(i int) int64 { return c.values[i] }

// Bounds returns (L_i, U_i).
func (c *Combined) Bounds(i int) (float64, float64) { return c.lower[i], c.upper[i] }

// Epsilon returns the composed error parameter ε = ε₁ + 2ε₂ the summary was
// built under. The composition is merge-invariant: TS over any union of
// summaries built with the same (ε₁, ε₂) — other partitions, other streams,
// other shards — carries the same per-item rank bands, which is why the
// query layer can report one ε for a merged multi-stream answer.
func (c *Combined) Epsilon() float64 { return c.eps1 + 2*c.eps2 }

// QuickRankError returns the worst-case rank error of a QuickQuery answer
// over this summary: ⌈1.5·ε·N⌉ (the paper's quick-response guarantee,
// Lemma 3). For a merged summary N is the union size, so this is the
// composed bound a cross-stream merged or grouped answer is subject to.
func (c *Combined) QuickRankError() int64 {
	return int64(math.Ceil(1.5 * c.Epsilon() * float64(c.N())))
}

// BuildCombined constructs TS over one stream summary — the original
// single-piece shape, kept for callers and tests that have no maintenance
// backlog. It is BuildPieces with a single piece.
func BuildCombined(sums []*partition.Summary, ss []int64, m int64, eps1, eps2 float64) *Combined {
	var pieces []StreamPiece
	if m > 0 || len(ss) > 0 {
		pieces = []StreamPiece{{SS: ss, M: m}}
	}
	return BuildPieces(sums, pieces, eps1, eps2)
}

// BuildVersion constructs TS over a pinned store version plus the
// memory-resident stream pieces — the snapshot-isolated full-history query
// entry point: the version's partition set and summaries are immutable, so
// the query runs entirely outside the engine's write lock while installs
// and merges publish newer versions behind it. The historical side is the
// version's cached History (weighted with the store's ε₁), so a query pays
// only for merging the pieces onto it, and nothing when there are none.
func BuildVersion(v *partition.Version, pieces []StreamPiece, eps2 float64) *Combined {
	return buildOn(v.Entries(), v.History(), pieces, eps2)
}

// BuildPieces constructs TS over any set of partition summaries — a window
// subset, or the synthetic summaries of merged shards — sorting their
// union first. TS and every L_i and U_i follow the formulas preceding
// Lemma 2, with the stream term summed over every memory-resident piece:
//
//	L_i = Σ_j ε₂·m_j·b_j·(α_{S_j} − 1) + Σ_{P: α_P>0} m_P·ε₁·(α_P − 1)
//	U_i = Σ_j ε₂·m_j·b_j·(α_{S_j} + 1) + Σ_{P: α_P>0} m_P·ε₁·α_P
//
// where α_{S_j} (resp. α_P) counts summary elements ≤ TS[i] from stream
// piece j (resp. partition P) and b_j = 1 iff α_{S_j} > 0. With a single
// piece this is exactly the paper's bound; each extra sealed-batch piece
// contributes its own independent ε₂·m_j band.
func BuildPieces(sums []*partition.Summary, pieces []StreamPiece, eps1, eps2 float64) *Combined {
	return buildOn(sums, partition.NewHistory(sums, eps1), pieces, eps2)
}

// pieceCursor walks one stream piece during the merge.
type pieceCursor struct {
	ss  []int64
	i   int
	em2 float64 // ε₂·m_j
}

// buildOn merges the stream pieces onto the historical side h of sums in
// one linear pass, accumulating the stream terms of L and U beside h's
// prefix terms. Equal values take stream pieces before partitions, and
// among pieces the higher index first; h already orders partitions by
// index. With no piece elements TS is h itself.
func buildOn(sums []*partition.Summary, h *partition.History, pieces []StreamPiece, eps2 float64) *Combined {
	c := &Combined{sums: sums, streams: pieces, histN: h.N, eps1: h.Eps1, eps2: eps2}
	total := len(h.Values)
	for _, p := range pieces {
		c.m += p.M
		total += len(p.SS)
	}
	if total == len(h.Values) {
		c.values, c.lower, c.upper = h.Values, h.L, h.U
		return c
	}
	cur := make([]pieceCursor, len(pieces))
	for j, p := range pieces {
		ss := p.SS
		if !slices.IsSorted(ss) {
			ss = slices.Sorted(slices.Values(ss))
		}
		cur[j] = pieceCursor{ss: ss, em2: eps2 * float64(p.M)}
	}
	c.values = make([]int64, total)
	c.lower = make([]float64, total)
	c.upper = make([]float64, total)
	var streamL, streamU float64 // Σ_j ε₂·m_j·b_j·(α_j∓1) terms
	var histL, histU float64     // h's prefix terms of the items merged so far
	hi := 0
	for i := range c.values {
		// The piece holding the smallest unmerged value, the highest
		// index on ties.
		var p *pieceCursor
		for j := len(cur) - 1; j >= 0; j-- {
			if q := &cur[j]; q.i < len(q.ss) && (p == nil || q.ss[q.i] < p.ss[p.i]) {
				p = q
			}
		}
		if p != nil && (hi == len(h.Values) || p.ss[p.i] <= h.Values[hi]) {
			c.values[i] = p.ss[p.i]
			p.i++
			if p.i == 1 {
				// b_j flips to 1: L gains 0 (α−1 = 0), U gains 2·ε₂m_j.
				streamU += 2 * p.em2
			} else {
				streamL += p.em2
				streamU += p.em2
			}
		} else {
			c.values[i] = h.Values[hi]
			histL, histU = h.L[hi], h.U[hi]
			hi++
		}
		c.lower[i] = streamL + histL
		c.upper[i] = streamU + histU
	}
	return c
}

// QuickQuery implements Algorithm 5: return TS[j] for the smallest j with
// L_j ≥ r, or the last element if none. The returned element's rank is
// within 1.5·εN of r (Lemma 3).
func (c *Combined) QuickQuery(r int64) (int64, error) {
	if len(c.values) == 0 {
		return 0, fmt.Errorf("core: quick query on empty summary")
	}
	fr := float64(r)
	j := sort.Search(len(c.lower), func(i int) bool { return c.lower[i] >= fr })
	if j == len(c.lower) {
		j = len(c.lower) - 1
	}
	return c.values[j], nil
}

// Filters implements Algorithm 7: values u, v from TS with rank(u,T) ≤ r ≤
// rank(v,T) and rank spread < 4εN (Lemma 4). When no U_i ≤ r exists the
// global minimum is used; when no L_i ≥ r exists the global maximum is used.
func (c *Combined) Filters(r int64) (u, v int64, err error) {
	if len(c.values) == 0 {
		return 0, 0, fmt.Errorf("core: filters on empty summary")
	}
	fr := float64(r)
	// x: largest i with U_i ≤ r. U is non-decreasing, so binary search works.
	x := sort.Search(len(c.upper), func(i int) bool { return c.upper[i] > fr }) - 1
	if x < 0 {
		x = 0
	}
	// y: smallest i with L_i ≥ r.
	y := sort.Search(len(c.lower), func(i int) bool { return c.lower[i] >= fr })
	if y == len(c.lower) {
		y = len(c.lower) - 1
	}
	u, v = c.values[x], c.values[y]
	if u > v {
		// Only possible at the clamped extremes; normalize.
		u, v = v, u
	}
	return u, v, nil
}

// StreamRankEstimate returns ρ₂ of Algorithm 8, summed across every
// memory-resident stream piece: Σ_j ε₂·m_j·|{SS_j ≤ z}|.
func (c *Combined) StreamRankEstimate(z int64) float64 {
	var rho float64
	for _, p := range c.streams {
		cnt := sort.Search(len(p.SS), func(i int) bool { return p.SS[i] > z })
		rho += float64(cnt) * c.eps2 * float64(p.M)
	}
	return rho
}
