package main

import (
	"fmt"
	"math"

	"repro/internal/oracle"
)

// answer is one value the program returned, kept for checking against the
// exact oracle after the timed region.
type answer struct {
	kind  string  // accurate, poll, quick, plan or cluster
	key   string  // oracle the answer is checked against: a stream or a group
	phi   float64 // quantile target
	value int64   // the program's answer
	n     int64   // element count the program reported; 0 when it reports none
	// live is the stream's unsealed element count m when an accurate or
	// poll answer was given; the workload knows it from what it wrote.
	live int64
	// bound is the rank error a plan or cluster answer states for itself.
	bound int64
}

// limit returns the largest rank error the program promises for a, over
// n elements in all:
//   - accurate and poll answers (bisection over the warehouse, Theorem 2):
//     ⌈1.25·ε·m⌉ + 2 for m live elements, the bound the repository's
//     property tests assert; with every step sealed it is nearly exact;
//   - quick answers (summaries only, Lemma 3): ⌈1.5·ε·N⌉;
//   - plan and cluster answers: the bound each result states.
func (a answer) limit(n int64) int64 {
	switch a.kind {
	case "accurate", "poll":
		return int64(math.Ceil(1.25*eps*float64(a.live))) + 2
	case "quick":
		return int64(math.Ceil(1.5 * eps * float64(n)))
	default:
		return a.bound
	}
}

// checkAnswers verifies every answer against its oracle: the reported
// count, when there is one, must equal the oracle's, and the distance from
// the target rank ⌈φ·N⌉ to the rank span of the answered value must not
// exceed the answer's limit. It returns one message per violation.
func checkAnswers(oracles map[string]*oracle.Oracle, answers []answer) []string {
	var bad []string
	for _, a := range answers {
		o := oracles[a.key]
		if o == nil || o.Count() == 0 {
			bad = append(bad, fmt.Sprintf("%s %q: no oracle data", a.kind, a.key))
			continue
		}
		n := o.Count()
		if a.n != 0 && a.n != n {
			bad = append(bad, fmt.Sprintf("%s %q φ=%g: program reports N=%d, oracle holds %d", a.kind, a.key, a.phi, a.n, n))
			continue
		}
		bound := a.limit(n)
		target := max(int64(1), min(n, int64(math.Ceil(a.phi*float64(n)))))
		if e := o.SpanError(target, a.value); e > bound {
			bad = append(bad, fmt.Sprintf("%s %q φ=%g: answer %d has rank error %d > bound %d (N=%d, m=%d)",
				a.kind, a.key, a.phi, a.value, e, bound, n, a.live))
		}
	}
	return bad
}

// corrupt replaces the first answer aimed at φ ≤ 0.5 with a value beyond
// every observed element — rank error about N/2, far outside any bound —
// so a run can demonstrate that the checker fails it.
func corrupt(answers []answer) bool {
	for i := range answers {
		if answers[i].phi <= 0.5 {
			answers[i].value = math.MaxInt64
			return true
		}
	}
	return false
}
