package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// The query workload is the read path over a static warehouse larger than
// the block cache: 128 sealed steps of 20,000 normal values plus 5,000
// live values (8 partitions over three levels, ≈2.9 MB on disk) behind a
// 64-block cache, about a third of the decoded working set, so reads mix
// cache hits and misses. One goroutine runs a seeded closed loop of
// accurate Quantile at random φ, QuantileQuick and the 3-φ poll; ingest
// and GK are idle.
const (
	queryStream      = "query.s"
	querySteps       = 128
	queryStepValues  = 20_000
	queryLiveValues  = 5_000
	queryCacheBlocks = 64
	// queryOpsPerSecond sizes the read phase from --seconds, and
	// queryEpochs splits it (see runQuery).
	queryOpsPerSecond = 1200
	queryEpochs       = 6
	// After the read phase, a second stream of the same DB takes
	// writeProbeSteps steps of writeProbeValues values, for the write
	// metrics: two chunks of 200 for the step p95, and on its own stream
	// so the warehouse the reads measured stays as it was.
	writeProbeStream = "query.w"
	writeProbeSteps  = 400
	writeProbeValues = 10_000
)

func queryOptions(dir string) hsq.Options {
	return hsq.Options{Epsilon: eps, Dir: dir, CacheBlocks: queryCacheBlocks}
}

func runQuery(p *pass) error {
	// The live values set-up leaves unsealed: reopening the DB drops them,
	// so each epoch observes them again.
	gen := workload.NewNormal(p.cfg.seed)
	for i := 0; i < querySteps*queryStepValues; i++ {
		gen.Next()
	}
	live := workload.Fill(gen, queryLiveValues)
	db, dir, err := setUp(p, heavySetups, func(d string) (*hsq.DB, error) {
		db, err := hsq.Open(queryOptions(d))
		if err != nil {
			return nil, err
		}
		st, err := db.Stream(queryStream)
		if err != nil {
			db.Close()
			return nil, err
		}
		gen := workload.NewNormal(p.cfg.seed)
		for i := 0; i < querySteps; i++ {
			st.ObserveSlice(workload.Fill(gen, queryStepValues))
			if _, err := st.EndStep(); err != nil {
				db.Close()
				return nil, err
			}
		}
		st.ObserveSlice(live)
		return db, nil
	}, (*hsq.DB).Close)
	if err != nil {
		return err
	}
	defer func() {
		if db != nil {
			db.Close() //nolint:errcheck // error path; the first error is returned
		}
	}()
	st, err := db.Stream(queryStream)
	if err != nil {
		return err
	}

	rd := &reader{
		p: p, db: db, st: st, live: queryLiveValues, rng: rand.New(rand.NewSource(p.cfg.seed)),
		plan:    []byte(`{"streams":["` + queryStream + `"],"phis":[0.5,0.9,0.99]}`),
		planKey: func(string) string { return queryStream },
	}
	var (
		io           hsq.IOStats
		memo0, memo1 hsq.ProbeMemoStats
	)
	rm := startRuntimeMeter()
	// A fixed number of reads, about --seconds long on a 2-core Xeon: the
	// memo and the cache fill as the phase goes on, so a phase cut by the
	// clock would end in a different state on every run. The block cache
	// places blocks by a hash seeded afresh in every process, which moves
	// its hit ratio and size from run to run; so the phase is split into
	// epochs, each on a freshly opened DB holding the same data, and the
	// metrics pool them.
	ops := queryOpsPerSecond * p.cfg.seconds
	for e := 0; e < queryEpochs; e++ {
		if e > 0 {
			if err := db.Close(); err != nil {
				return err
			}
			if db, err = hsq.Open(queryOptions(dir)); err != nil {
				return err
			}
			if st, err = db.Stream(queryStream); err != nil {
				return err
			}
			st.ObserveSlice(live)
			rd.db, rd.st = db, st
		}
		io0, m0 := st.DiskStats(), st.ProbeMemoStats()
		for i := 0; i < ops/queryEpochs; i++ {
			var err error
			switch rd.rng.Intn(3) {
			case 0:
				err = rd.do(1, "accurate")
			case 1:
				err = rd.do(1, "quick")
			default:
				err = rd.do(1, "poll")
			}
			if err != nil {
				return err
			}
		}
		p.recordHeap()
		d, m1 := st.DiskStats().Sub(io0), st.ProbeMemoStats()
		io.CacheHits += d.CacheHits
		io.CacheMisses += d.CacheMisses
		memo1.Hits += m1.Hits - m0.Hits
		memo1.Misses += m1.Misses - m0.Misses
	}
	if p.tr != nil {
		rm.record(p, ops)
		p.recordQueryLayers(rd.qt, io, memo0, memo1)
		p.layer["partition.count"] = float64(st.PartitionCount())
		if err := p.summaryReplay(st, 200); err != nil {
			return err
		}
		if err := p.planReplay(db, rd.plan, 200); err != nil {
			return err
		}
		p.recordPlanLayers()
	}
	fmt.Printf("phase query: %d reads\n", ops)

	readValues := int64(querySteps*queryStepValues + queryLiveValues)
	ws, err := db.Stream(writeProbeStream)
	if err != nil {
		return err
	}
	gen = workload.NewNormal(p.cfg.seed + 1)
	var busy time.Duration
	for i := 0; i < writeProbeSteps; i++ {
		vs := workload.Fill(gen, writeProbeValues)
		t0 := time.Now()
		ws.ObserveSlice(vs)
		err := p.timed("step_ms", "ms", func() error { _, err := ws.EndStep(); return err })
		busy += time.Since(t0)
		if err != nil {
			return err
		}
		// Plans on the unchanged read stream, spread between the steps.
		if err := rd.do(cheapProbeOps/writeProbeSteps, "plan"); err != nil {
			return err
		}
	}
	written := int64(writeProbeSteps * writeProbeValues)
	p.vals["ingest_values_per_s"] = float64(written) / busy.Seconds()
	if got := st.TotalCount(); got != readValues {
		p.violations = append(p.violations, fmt.Sprintf("stream %s holds %d values, %d were written", queryStream, got, readValues))
	}
	if got := st.StreamCount(); got != rd.live {
		p.violations = append(p.violations, fmt.Sprintf("stream %s holds %d live values, %d were left unsealed", queryStream, got, rd.live))
	}
	if got := ws.TotalCount(); got != written {
		p.violations = append(p.violations, fmt.Sprintf("stream %s holds %d values, %d were written", writeProbeStream, got, written))
	}
	total := readValues + written
	size, err := dirSize(dir)
	if err != nil {
		return err
	}
	p.vals["stored_bytes_per_value"] = float64(size) / float64(total)
	err = db.Close()
	db = nil
	if err != nil {
		return err
	}

	oracles := make(map[string]*oracle.Oracle)
	if p.tr != nil {
		regen := workload.NewNormal(p.cfg.seed)
		co, err := p.clusterReplay(func() []int64 { return workload.Fill(regen, queryStepValues) })
		if err != nil {
			return fmt.Errorf("cluster replay: %w", err)
		}
		oracles["cluster"] = co
	}
	gen = workload.NewNormal(p.cfg.seed)
	o := oracle.New(int(readValues))
	for i := int64(0); i < readValues; i++ {
		o.Add(gen.Next())
	}
	oracles[queryStream] = o
	p.finishChecks(oracles)

	if p.tr != nil {
		regen := workload.NewNormal(p.cfg.seed)
		step := func(int) []int64 { return workload.Fill(regen, queryStepValues) }
		if err := p.writeReplay(dir+"-replay", queryOptions(""), step, ingestCycle); err != nil {
			return fmt.Errorf("write replay: %w", err)
		}
	}
	return nil
}
