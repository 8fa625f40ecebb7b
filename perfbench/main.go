// Command perfbench is the repository's benchmark: one program that drives
// hsq's public API through a named workload, prints every end-to-end
// metric by name with its unit, and checks every answer against the exact
// oracle in internal/oracle. With --trace 1 it runs the workload twice —
// untraced, then with spans recorded around every call into a layer — and
// prints the per-layer metrics instead, plus the tracing overhead.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// The workloads, the layers each one exercises or bypasses, and which
// end-to-end metric each per-layer metric should move are described in
// perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/oracle"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// e2eMetrics are printed by an untraced run, in this order.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ingest_values_per_s", "values/s"},
	{"step_ms_p50", "ms"}, {"step_ms_p95", "ms"},
	{"accurate_us_p50", "us"}, {"accurate_us_p95", "us"},
	{"quick_us_p50", "us"}, {"quick_us_p95", "us"},
	{"poll_us_p50", "us"}, {"poll_us_p95", "us"},
	{"plan_ms_p50", "ms"}, {"plan_ms_p95", "ms"},
	{"stored_bytes_per_value", "B"},
	{"heap_live_mb", "MB"},
}

// e2eDists are the latency distributions. Each reports its median and
// its p95. For steps, p95 sits inside the cluster of merge steps (one in
// κ = 10) where p90 would sit on its edge. For reads, p95 is the highest
// percentile every workload samples in at least five chunks of 200 with
// ten beyond each.
var e2eDists = []struct{ base, unit string }{
	{"step_ms", "ms"},
	{"accurate_us", "us"},
	{"quick_us", "us"},
	{"poll_us", "us"},
	{"plan_ms", "ms"},
}

// e2ePcts are the percentiles reported from every distribution.
var e2ePcts = []int{50, 95}

// higherIsBetter lists the end-to-end metrics where larger is better.
var higherIsBetter = map[string]bool{"ingest_values_per_s": true}

// layerMetrics are printed by a traced run, in this order. Workloads that
// never reach a layer report zero for its metrics.
var layerMetrics = []metricDef{
	{"hsqclient.observe_ns_per_value", "ns"},
	{"wire.encode_ns_per_value", "ns"},
	{"wire.decode_ns_per_value", "ns"},
	{"wire.bytes_per_value", "B"},
	{"ingest.values_per_frame", "count"},
	{"ingest.dup_frames", "count"},
	{"gk.insert_ns_per_value", "ns"},
	{"hsq.observe_ns_per_value", "ns"},
	{"hsq.endstep.load_ms", "ms"},
	{"hsq.endstep.sort_ms", "ms"},
	{"hsq.endstep.merge_ms", "ms"},
	{"hsq.endstep.summary_ms", "ms"},
	{"partition.merges", "count"},
	{"partition.count", "count"},
	{"disk.seq_writes_per_value", "blocks/value"},
	{"disk.seq_reads_per_value", "blocks/value"},
	{"core.probes_per_query", "count"},
	{"disk.rand_reads_per_query", "count"},
	{"disk.cache_hit_ratio", "ratio"},
	{"disk.skips_per_query", "count"},
	{"hsq.summary_us", "us"},
	{"core.quick_query_us", "us"},
	{"partition.memo_hit_ratio", "ratio"},
	{"query.parse_us", "us"},
	{"query.scoped_summary_us", "us"},
	{"core.merge_us", "us"},
	{"cluster.fetch_us", "us"},
	{"cluster.cache_hit_ratio", "ratio"},
	{"cluster.relay_pending_max", "count"},
	{"cluster.relay_dropped", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
}

// overheadPrefix names the per-layer metrics that report tracing
// overhead: for each end-to-end metric but setup_s (set-up is not traced),
// how much worse the traced pass read than the untraced one, as a
// fraction of the untraced value.
const overheadPrefix = "trace.overhead."

// workloads maps each workload name to its driver.
var workloads = map[string]func(p *pass) error{
	"ingest": runIngest,
	"query":  runQuery,
}

type config struct {
	workload  string
	seed      int64
	seconds   int
	dir       string // directory for the warehouses; recreated per pass
	injectBad bool
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: ingest or query")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input is derived from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "size of the timed phase: about this many seconds of work on a 2-core Xeon")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	flag.BoolVar(&cfg.injectBad, "inject-bad-answer", false, "corrupt one answer before checking, to show the check fails the run")
	flag.Parse()
	wl, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (ingest or query), --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	cfg.dir = filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	defer os.RemoveAll(cfg.dir)

	st := newStamp(cfg, trace == 1)
	line, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", line)

	passes := []*pass{newPass(cfg, nil)}
	if trace == 1 {
		passes = append(passes, newPass(cfg, newTracer()))
	}
	for _, p := range passes {
		if err := os.RemoveAll(cfg.dir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := wl(p); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
			return 1
		}
	}

	res := resultOut{Correct: true, Metrics: make(map[string]metricOut)}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if len(p.violations) > 0 || p.checked == 0 {
			res.Correct = false
		}
		for _, v := range p.violations {
			fmt.Printf("violation %s\n", v)
		}
		fmt.Printf("checked %d answers against the oracle, %d violations (traced=%v)\n", p.checked, len(p.violations), p.tr != nil)
	}
	untraced := passes[0].e2e()
	if trace == 0 {
		for _, m := range e2eMetrics {
			v, ok := untraced[m.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", cfg.workload, m.name)
				return 1
			}
			res.Metrics[m.name] = metricOut{v, m.unit}
		}
		passes[0].printSamples()
	} else {
		traced := passes[1]
		tracedE2E := traced.e2e()
		for _, m := range layerMetrics {
			res.Metrics[m.name] = metricOut{traced.layer[m.name], m.unit}
		}
		for _, m := range e2eMetrics {
			if m.name == "setup_s" {
				continue
			}
			u, t := untraced[m.name], tracedE2E[m.name]
			worse := ratio(t, u) - 1
			if higherIsBetter[m.name] {
				worse = ratio(u, t) - 1
			}
			if u == 0 || t == 0 {
				worse = 0
			}
			res.Metrics[overheadPrefix+m.name] = metricOut{worse, "frac"}
			fmt.Printf("overhead %s untraced=%.6g traced=%.6g\n", m.name, u, t)
		}
		path, err := writeTrace(cfg, st, traced, untraced, tracedE2E)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		fmt.Printf("trace %s\n", path)
	}
	fmt.Printf("fraction failed %d/%d\n", res.Failed, res.Attempted)
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeTrace writes the traced pass's spans, per-name self times and the
// traced and untraced end-to-end numbers under .bench_build/traces.
func writeTrace(cfg config, st stamp, traced *pass, untraced, tracedE2E map[string]float64) (string, error) {
	spans := traced.tr.snapshot()
	doc := struct {
		Stamp     stamp                  `json:"stamp"`
		Untraced  map[string]float64     `json:"untraced_e2e"`
		Traced    map[string]float64     `json:"traced_e2e"`
		Layers    map[string]float64     `json:"layers"`
		ByName    map[string]*spanTotals `json:"spans_by_name"`
		SpanCount int                    `json:"span_count"`
		Spans     []span                 `json:"spans"`
	}{st, untraced, tracedE2E, traced.layer, totalsByName(spans), len(spans), spans}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// pass is one execution of a workload: its set-up, timed phase and
// checks, and everything measured along the way.
type pass struct {
	cfg    config
	tr     *tracer
	setups int // times set-up is repeated; setup_s is their median

	dists map[string]*dist   // latency distributions by base name
	vals  map[string]float64 // scalar end-to-end metrics
	layer map[string]float64 // per-layer metrics (traced pass)

	heapBase   uint64    // live heap before the measured set-up opened its DB
	heap       []float64 // heap_live_mb samples
	answers    []answer
	checked    int
	violations []string
	attempted  int
	failed     int
}

func newPass(cfg config, tr *tracer) *pass {
	return &pass{
		cfg: cfg, tr: tr,
		dists: make(map[string]*dist),
		vals:  make(map[string]float64),
		layer: make(map[string]float64),
	}
}

func (p *pass) dist(base, unit string) *dist {
	d := p.dists[base]
	if d == nil {
		d = newDist(unit)
		p.dists[base] = d
	}
	return d
}

// timed runs one closed-loop operation, records its latency into the
// named distribution and counts it as attempted (and failed on error).
func (p *pass) timed(base, unit string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	p.dist(base, unit).add(time.Since(t0))
	p.attempted++
	if err != nil {
		p.failed++
	}
	return err
}

// heavySetups is how often a set-up taking seconds is repeated.
const heavySetups = 3

// setUp builds the workload's starting state n times, each in a fresh
// directory, and keeps the last; setup_s is the median build time. A
// traced pass builds once: set-up is neither traced nor reported there.
// Every earlier state is torn down before the next build starts. The live
// heap is read just before the kept build, once nothing references the
// earlier states, so heap_live_mb excludes them and any generator tables
// allocated before.
func setUp[T any](p *pass, n int, build func(dir string) (T, error), teardown func(T) error) (state T, dir string, err error) {
	p.setups = n
	if p.tr != nil {
		p.setups = 1
	}
	var times []float64
	for i := 0; i < p.setups; i++ {
		dir = filepath.Join(p.cfg.dir, fmt.Sprintf("setup%d", i))
		if i == p.setups-1 {
			p.heapBase = liveHeap()
		}
		t0 := time.Now()
		st, err := build(dir)
		if err != nil {
			return state, "", fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == p.setups-1 {
			state = st
			break
		}
		if err := teardown(st); err != nil {
			return state, "", fmt.Errorf("set-up teardown: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return state, "", err
		}
	}
	p.vals["setup_s"] = median(times)
	return state, dir, nil
}

// liveHeap forces a collection and returns the bytes of live heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// recordHeap samples the live heap now, less the reading taken before the
// DB was opened; heap_live_mb is the mean of the samples a pass takes.
func (p *pass) recordHeap() {
	p.heap = append(p.heap, (float64(liveHeap())-float64(p.heapBase))/1e6)
	var sum float64
	for _, h := range p.heap {
		sum += h
	}
	p.vals["heap_live_mb"] = sum / float64(len(p.heap))
}

// finishChecks verifies the recorded answers against the oracles.
func (p *pass) finishChecks(oracles map[string]*oracle.Oracle) {
	if p.cfg.injectBad {
		corrupt(p.answers)
	}
	p.violations = append(p.violations, checkAnswers(oracles, p.answers)...)
	p.checked += len(p.answers)
}

// estimate returns the reported value of one percentile: the pooled
// median for p50, the chunked tail estimate above it.
func estimate(xs []float64, pct int) (float64, bool) {
	if pct == 50 {
		v, _, ok := percentile(xs, 50)
		return v, ok
	}
	v, _, ok := tail(xs, float64(pct))
	return v, ok
}

// e2e computes the end-to-end metrics of the pass.
func (p *pass) e2e() map[string]float64 {
	out := make(map[string]float64, len(e2eMetrics))
	for k, v := range p.vals {
		out[k] = v
	}
	for _, d := range e2eDists {
		ds := p.dists[d.base]
		if ds == nil {
			continue
		}
		for _, pct := range e2ePcts {
			if v, ok := estimate(ds.xs, pct); ok {
				out[fmt.Sprintf("%s_p%d", d.base, pct)] = v
			}
		}
	}
	return out
}

// printSamples states the sample count behind every timing.
func (p *pass) printSamples() {
	for _, dd := range e2eDists {
		d := p.dists[dd.base]
		if d == nil {
			continue
		}
		for _, pct := range e2ePcts {
			v, _ := estimate(d.xs, pct)
			how := fmt.Sprintf("samples=%d", len(d.xs))
			if pct != 50 {
				if _, chunks, _ := tail(d.xs, float64(pct)); chunks > 1 {
					how += fmt.Sprintf(", median over %d chunks of %.0f, each with 10 beyond", chunks, math.Round(1000/(100-float64(pct))))
				} else {
					_, beyond, _ := percentile(d.xs, float64(pct))
					how += fmt.Sprintf(", pooled, %d beyond", beyond)
				}
			}
			fmt.Printf("timing %s_p%d = %.4g %s (%s)\n", dd.base, pct, v, d.unit, how)
		}
	}
	fmt.Printf("timing setup_s = %.4g s (median of %d set-ups)\n", p.vals["setup_s"], p.setups)
}
