package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/hsqclient"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/oracle"
	"repro/internal/query"
)

// eps is the approximation parameter of every workload's DB: the library
// default the paper evaluates.
const eps = 0.01

// pollPhis are the dashboard poll's targets.
var pollPhis = []float64{0.5, 0.9, 0.99}

// rig is an in-process ingest front door: a DB, an ingest.Server on a
// loopback listener, and one hsqclient connection to it.
type rig struct {
	db     *hsq.DB
	srv    *ingest.Server
	served chan error
	client *hsqclient.Client
}

func openRig(opts hsq.Options) (*rig, error) {
	db, err := hsq.Open(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	r := &rig{db: db, srv: ingest.New(ingest.Config{DB: db}), served: make(chan error, 1)}
	go func() { r.served <- r.srv.Serve(ln) }()
	r.client, err = hsqclient.Dial(ln.Addr().String())
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close stops the client, the server and the DB, and waits for the
// server's accept loop to return.
func (r *rig) close() error {
	var errs []error
	if r.client != nil {
		errs = append(errs, r.client.Close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs = append(errs, r.srv.Shutdown(ctx))
	if err := <-r.served; !errors.Is(err, net.ErrClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, r.db.Close())
	return errors.Join(errs...)
}

// sendStep sends one step through an hsqclient stream — Observe per
// value, then EndStep and Flush — and returns how long EndStep took to be
// acknowledged. The step is traced as request req.
func (p *pass) sendStep(s *hsqclient.Stream, vs []int64, req int64) (time.Duration, error) {
	sp := p.tr.begin("op.step", 0, req)
	defer p.tr.end(sp, int64(len(vs)))
	c := p.tr.begin("hsqclient.Stream.Observe", sp, req)
	for _, v := range vs {
		if err := s.Observe(v); err != nil {
			p.tr.end(c, 0)
			return 0, err
		}
	}
	p.tr.end(c, int64(len(vs)))
	c = p.tr.begin("hsqclient.EndStep+Flush", sp, req)
	defer p.tr.end(c, 1)
	t0 := time.Now()
	if err := s.EndStep(); err != nil {
		return 0, err
	}
	err := s.Flush()
	return time.Since(t0), err
}

// dirSize returns the bytes of every file under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// oracleOf builds an exact oracle over values.
func oracleOf(values ...[]int64) *oracle.Oracle {
	n := 0
	for _, vs := range values {
		n += len(vs)
	}
	o := oracle.New(n)
	for _, vs := range values {
		o.Add(vs...)
	}
	return o
}

// queryTotals accumulates the QueryStats of accurate queries and polls.
type queryTotals struct {
	queries, probes, randReads, skips int
}

func (q *queryTotals) add(qs hsq.QueryStats) {
	q.queries++
	q.probes += qs.Iterations
	q.randReads += qs.RandReads
	q.skips += qs.SkippedBlocks
}

// reader issues the four read operations against a DB and records each
// answer for the oracle check. Every operation is traced as a request of
// its own; do times it closed-loop.
type reader struct {
	p  *pass
	db *hsq.DB
	st *hsq.Stream // stream of the accurate, quick and poll operations
	// live is st's unsealed element count, which the accurate bound
	// depends on. Reads run only while nothing writes to st.
	live int64
	plan []byte // JSON plan for plan operations
	// planKey maps a result group's key to the oracle that checks it.
	planKey func(group string) string
	rng     *rand.Rand
	qt      queryTotals
	req     int64
}

func (r *reader) keep(a answer) { r.p.answers = append(r.p.answers, a) }

// opDists names the latency distribution of each operation kind.
var opDists = map[string]struct{ base, unit string }{
	"accurate": {"accurate_us", "us"},
	"quick":    {"quick_us", "us"},
	"poll":     {"poll_us", "us"},
	"plan":     {"plan_ms", "ms"},
}

// run performs one operation of the given kind, untimed.
func (r *reader) run(kind string) error {
	r.req++
	sp := r.p.tr.begin("op."+kind, 0, r.req)
	defer r.p.tr.end(sp, 1)
	switch kind {
	case "accurate":
		phi := r.rng.Float64()*0.98 + 0.01
		c := r.p.tr.begin("hsq.Stream.Quantile", sp, r.req)
		v, qs, err := r.st.Quantile(phi)
		r.p.tr.end(c, 1)
		if err != nil {
			return err
		}
		r.qt.add(qs)
		r.keep(answer{kind: kind, key: r.st.Name(), phi: phi, value: v, live: r.live})
	case "quick":
		phi := r.rng.Float64()*0.98 + 0.01
		c := r.p.tr.begin("hsq.Stream.QuantileQuick", sp, r.req)
		v, err := r.st.QuantileQuick(phi)
		r.p.tr.end(c, 1)
		if err != nil {
			return err
		}
		r.keep(answer{kind: kind, key: r.st.Name(), phi: phi, value: v})
	case "poll":
		// The dashboard poll: one Quantiles call for three targets.
		c := r.p.tr.begin("hsq.Stream.Quantiles", sp, r.req)
		vs, qs, err := r.st.Quantiles(pollPhis)
		r.p.tr.end(c, int64(len(pollPhis)))
		if err != nil {
			return err
		}
		r.qt.add(qs)
		for i, v := range vs {
			r.keep(answer{kind: kind, key: r.st.Name(), phi: pollPhis[i], value: v, live: r.live})
		}
	case "plan":
		// A JSON plan parsed and run: the work behind hsqd's POST /query.
		c := r.p.tr.begin("query.ParsePlan", sp, r.req)
		plan, err := query.ParsePlan(r.plan)
		r.p.tr.end(c, 1)
		if err != nil {
			return err
		}
		c = r.p.tr.begin("hsq.DB.RunPlan", sp, r.req)
		res, err := r.db.RunPlan(plan)
		if err != nil {
			r.p.tr.end(c, 0)
			return err
		}
		r.p.tr.end(c, int64(len(res.Streams)))
		for _, g := range res.Groups {
			for _, w := range g.Windows {
				for i, v := range w.Values {
					r.keep(answer{kind: kind, key: r.planKey(g.Key), phi: res.Phis[i], value: v, n: w.N, bound: w.RankError})
				}
			}
		}
	default:
		return fmt.Errorf("unknown read kind %q", kind)
	}
	return nil
}

// do runs count closed-loop rounds of the given kinds, timing each
// operation into its kind's distribution.
func (r *reader) do(count int, kinds ...string) error {
	for i := 0; i < count; i++ {
		for _, k := range kinds {
			d := opDists[k]
			if err := r.p.timed(d.base, d.unit, func() error { return r.run(k) }); err != nil {
				return fmt.Errorf("%s: %w", k, err)
			}
		}
	}
	return nil
}

// recordQueryLayers turns the reader's accumulated QueryStats into the
// per-query layer metrics.
func (p *pass) recordQueryLayers(qt queryTotals, io hsq.IOStats, memo0, memo1 hsq.ProbeMemoStats) {
	q := float64(qt.queries)
	p.layer["core.probes_per_query"] = ratio(float64(qt.probes), q)
	p.layer["disk.rand_reads_per_query"] = ratio(float64(qt.randReads), q)
	p.layer["disk.skips_per_query"] = ratio(float64(qt.skips), q)
	p.layer["disk.cache_hit_ratio"] = ratio(float64(io.CacheHits), float64(io.CacheHits+io.CacheMisses))
	hits, misses := memo1.Hits-memo0.Hits, memo1.Misses-memo0.Misses
	p.layer["partition.memo_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
}

// summaryReplay times the quick path's layers on one stream: Stream.Summary
// (hsq) and QuickQuery (core) on the combined summary that
// MergeShardSummaries builds from it.
func (p *pass) summaryReplay(st *hsq.Stream, rounds int) error {
	var sumNs, quickNs time.Duration
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		sum, err := st.Summary()
		t1 := time.Now()
		if err != nil {
			return err
		}
		c, total, err := core.MergeShardSummaries([]*core.ShardSummary{sum})
		if err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := c.QuickQuery(max(1, total/2)); err != nil {
			return err
		}
		sumNs += t1.Sub(t0)
		quickNs += time.Since(t2)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(rounds) }
	p.layer["hsq.summary_us"] = us(sumNs)
	p.layer["core.quick_query_us"] = us(quickNs)
	return nil
}

// runtimeMeter reads allocation and GC counters around a timed phase.
type runtimeMeter struct{ ms runtime.MemStats }

func startRuntimeMeter() *runtimeMeter {
	m := &runtimeMeter{}
	runtime.ReadMemStats(&m.ms)
	return m
}

// record sets the runtime layer metrics for ops operations since start.
func (m *runtimeMeter) record(p *pass, ops int) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	p.layer["runtime.alloc_bytes_per_op"] = ratio(float64(now.TotalAlloc-m.ms.TotalAlloc), float64(ops))
	p.layer["runtime.gc_cycles"] = float64(now.NumGC - m.ms.NumGC)
}
