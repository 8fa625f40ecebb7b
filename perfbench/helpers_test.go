package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/oracle"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, unsorted
	cases := []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 5, 5},
		{90, 9, 1},
		{95, 10, 0},
		{99, 10, 0},
		{100, 10, 0},
		{1, 1, 9},
		{10, 1, 9},
		{11, 2, 8},
	}
	for _, c := range cases {
		v, beyond, ok := percentile(xs, c.p)
		if !ok || v != c.want || beyond != c.beyond {
			t.Errorf("p%g = %g (beyond %d, ok %v), want %g (beyond %d)", c.p, v, beyond, ok, c.want, c.beyond)
		}
	}
	if xs[0] != 10 {
		t.Errorf("percentile reordered its input")
	}
	if _, _, ok := percentile(nil, 50); ok {
		t.Errorf("percentile of no samples reported ok")
	}
	// 1000 samples: p99 is the 990th and has exactly ten beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if v, beyond, _ := percentile(big, 99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %g with %d beyond, want 990 with 10", v, beyond)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestTailIsMedianOfChunkPercentiles(t *testing.T) {
	// Five chunks of 1000: every chunk's p99 is 990, except that one
	// chunk holds a burst of 60 slow samples.
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(i%1000 + 1)
	}
	for i := 2000; i < 2060; i++ {
		xs[i] = 1e6
	}
	if v, _, _ := percentile(xs, 99); v != 1e6 {
		t.Fatalf("pooled p99 = %g, want the burst to set it", v)
	}
	v, chunks, ok := tail(xs, 99)
	if !ok || chunks != 5 || v != 990 {
		t.Errorf("tail p99 = %g over %d chunks, want 990 over 5", v, chunks)
	}
	// p95 chunks hold 200 samples.
	if _, chunks, _ := tail(xs, 95); chunks != 25 {
		t.Errorf("p95 used %d chunks, want 25", chunks)
	}
	// Under two chunks the pooled percentile stands.
	short := xs[:1999]
	want, _, _ := percentile(short, 99)
	if v, chunks, _ := tail(short, 99); chunks != 1 || v != want {
		t.Errorf("short tail = %g over %d chunks, want pooled %g", v, chunks, want)
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two children that overlap each other: together they cover 10..50.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		// A grandchild counts against its parent only.
		{ID: 4, Parent: 2, Name: "a.inner", Start: 15, End: 25},
		// A child outliving its parent is clipped to the parent.
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 130},
		{ID: 6, Name: "other-root", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 30 - 10, 3: 20, 4: 10, 5: 40, 6: 7}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	tot := totalsByName(spans)
	if tot["root"].SelfNs != 50 || tot["root"].TotalNs != 100 || tot["root"].Count != 1 {
		t.Errorf("totals for root = %+v", *tot["root"])
	}
}

func TestTracerRecordsParentsAndNilIsNoop(t *testing.T) {
	var off *tracer
	if id := off.begin("x", 0, 1); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	off.end(0, 1)
	tr := newTracer()
	root := tr.begin("op", 0, 7)
	child := tr.begin("call", root, 7)
	tr.end(child, 3)
	open := tr.begin("unfinished", root, 7)
	_ = open
	tr.end(root, 1)
	got := tr.snapshot()
	if len(got) != 2 {
		t.Fatalf("snapshot kept %d spans, want the 2 closed ones", len(got))
	}
	if got[1].Parent != root || got[1].Req != 7 || got[1].N != 3 || got[1].End < got[1].Start {
		t.Errorf("child span = %+v", got[1])
	}
}

func TestCheckAnswersBounds(t *testing.T) {
	o := oracle.New(1000)
	for v := int64(1); v <= 1000; v++ {
		o.Add(v)
	}
	oracles := map[string]*oracle.Oracle{"s": o}
	// With ε = 0.01 and N = 1000: accurate and poll answers may miss by
	// ⌈1.25·ε·m⌉ + 2 ranks (2 with nothing live, 7 with m = 400), quick
	// answers by ⌈1.5·ε·N⌉ = 15, plans by what they state.
	good := []answer{
		{kind: "accurate", key: "s", phi: 0.5, value: 500},
		{kind: "accurate", key: "s", phi: 0.5, value: 502}, // on the bound
		{kind: "accurate", key: "s", phi: 0.5, value: 507, live: 400},
		{kind: "poll", key: "s", phi: 0.99, value: 988},
		{kind: "quick", key: "s", phi: 0.9, value: 915},
		{kind: "plan", key: "s", phi: 0.99, value: 995, n: 1000, bound: 5},
		{kind: "cluster", key: "s", phi: 0.5, value: 530, n: 1000, bound: 30},
	}
	if bad := checkAnswers(oracles, good); len(bad) != 0 {
		t.Fatalf("in-bound answers rejected: %v", bad)
	}
	for _, a := range []answer{
		// Inside ε·N = 10 ranks, but a sealed warehouse promises 2.
		{kind: "accurate", key: "s", phi: 0.5, value: 503},
		{kind: "poll", key: "s", phi: 0.5, value: 509},
		{kind: "accurate", key: "s", phi: 0.5, value: 508, live: 400},
		{kind: "quick", key: "s", phi: 0.9, value: 916},
		{kind: "plan", key: "s", phi: 0.99, value: 995, n: 999, bound: 50}, // wrong count
		{kind: "plan", key: "missing", phi: 0.5, value: 1, bound: 50},
		{kind: "cluster", key: "s", phi: 0.5, value: 531, n: 1000, bound: 30},
	} {
		if bad := checkAnswers(oracles, []answer{a}); len(bad) != 1 {
			t.Errorf("out-of-bound answer %+v not caught", a)
		}
	}
}

// TestInjectedBadAnswerIsCaught is the self-test behind
// --inject-bad-answer: a run whose answers all pass fails once one of them
// is corrupted.
func TestInjectedBadAnswerIsCaught(t *testing.T) {
	o := oracle.New(100)
	for v := int64(0); v < 100; v++ {
		o.Add(v * 3)
	}
	p := newPass(config{injectBad: true}, nil)
	p.answers = []answer{
		{kind: "poll", key: "s", phi: 0.9, value: 267},
		{kind: "poll", key: "s", phi: 0.5, value: 147},
	}
	if bad := checkAnswers(map[string]*oracle.Oracle{"s": o}, p.answers); len(bad) != 0 {
		t.Fatalf("answers fail before injection: %v", bad)
	}
	p.finishChecks(map[string]*oracle.Oracle{"s": o})
	if p.checked != 2 || len(p.violations) != 1 || !strings.Contains(p.violations[0], "φ=0.5") {
		t.Fatalf("checked %d, violations %v; want the corrupted φ=0.5 answer caught", p.checked, p.violations)
	}
}

// allLayerMetrics lists what a traced run prints: the per-layer metrics,
// then one overhead fraction per end-to-end metric but setup_s.
func allLayerMetrics() []metricDef {
	out := append([]metricDef(nil), layerMetrics...)
	for _, m := range e2eMetrics {
		if m.name != "setup_s" {
			out = append(out, metricDef{overheadPrefix + m.name, "frac"})
		}
	}
	return out
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables of this program in step: the driver requires every listed metric
// in every result, with the listed unit.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the program reports %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eMetrics)
	same("per_layer", b.PerLayer, allLayerMetrics())
	for _, m := range b.EndToEnd {
		if want := map[bool]string{true: "higher", false: "lower"}[higherIsBetter[m.Name]]; m.Better != want {
			t.Errorf("end_to_end %s: better = %q, want %q", m.Name, m.Better, want)
		}
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no driver", w.Name)
		}
	}
}
