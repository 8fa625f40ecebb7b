package partition

import "slices"

// History is the historical side of the combined summary TS: the
// value-sorted union of a set of partition summaries, with each item's
// historical prefix terms of the rank bounds L_i and U_i (the formulas
// preceding Lemma 2 of the paper):
//
//	L[i] = Σ_{P: α_P>0} m_P·ε₁·(α_P − 1)
//	U[i] = Σ_{P: α_P>0} m_P·ε₁·α_P
//
// where α_P counts the summary elements of partition P among Values[0..i].
// Items with equal values are ordered by their summary's index in the
// source list. A History is immutable once built; the combined summary
// merges the memory-resident stream pieces onto it.
type History struct {
	// Values is the sorted union of the summaries' values.
	Values []int64
	// L and U are the historical prefix terms after each item.
	L, U []float64
	// N is the total element count of the summarized partitions.
	N int64
	// Eps1 is the ε₁ the prefix terms were weighted with.
	Eps1 float64
}

// NewHistory sorts the union of sums and computes its prefix terms under
// ε₁ = eps1.
func NewHistory(sums []*Summary, eps1 float64) *History {
	type item struct {
		v   int64
		src int
	}
	h := &History{Eps1: eps1}
	total := 0
	for _, s := range sums {
		total += len(s.Values)
		h.N += s.Part.Count
	}
	items := make([]item, 0, total)
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
	h.Values = make([]int64, total)
	h.L = make([]float64, total)
	h.U = make([]float64, total)
	var histL, histU float64
	alpha := make([]int, len(sums))
	for i, it := range items {
		w := float64(sums[it.src].Part.Count) * eps1
		alpha[it.src]++
		if alpha[it.src] == 1 {
			histU += w // α_P = 1 contributes w to U, 0 to L
		} else {
			histL += w
			histU += w
		}
		h.Values[i] = it.v
		h.L[i] = histL
		h.U[i] = histU
	}
	return h
}

// History returns the History of the version's full entry set, weighted
// with the store's ε₁. It is built on the first call — never at publish,
// so installs and merges pay nothing for it — and shared by every later
// query on the version; like the probe memo, it dies with the version.
func (v *Version) History() *History {
	v.histOnce.Do(func() {
		v.hist = NewHistory(v.entries, v.store.cfg.Eps1)
		v.store.historyBuilds.Add(1)
	})
	return v.hist
}

// HistoryBuilds returns how many version Histories the store has built,
// for diagnostics and tests: at most one per published version.
func (s *Store) HistoryBuilds() uint64 { return s.historyBuilds.Load() }
