package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// The ingest workload is the write path: one hsqclient connection over
// loopback to an in-process ingest.Server on a file-backed DB with library
// defaults (sync maintenance, columnar blocks, no block cache, ε = 0.01,
// κ = 10). One stream receives uniform values in 20,000-value steps, each
// closed by EndStep + Flush. There are no reads in the timed phase, so
// wire, ingest, GK, seal/sort/merge and fsync do all the work.
const (
	ingestStream     = "ingest.s"
	ingestStepValues = 20_000
	// ingestCycle is κ² steps: one level-2 merge cascade per cycle, so a
	// phase of whole cycles always holds the same mix of plain, level-1
	// and level-2 steps, whatever the machine's speed.
	ingestCycle = 100
	// ingestMaxSteps stops before step 1000, whose level-3 cascade would
	// dwarf everything else in the phase.
	ingestMaxSteps = 900
	// ingestStepsPerSecond gives 800 steps at --seconds 15: four whole
	// chunks of 200 for the step p95.
	ingestStepsPerSecond = 55
	// ingestSetups: set-up is a fresh DB, server and connection, well under
	// a millisecond, so it is repeated often enough for a steady median.
	ingestSetups = 41
	// probeOps and cheapProbeOps are how many closed-loop reads of each
	// kind a workload runs after its timed phase for the read metrics its
	// own phase lacks: accurate reads, and the cheaper quick reads, polls
	// and plans. probeRounds splits ingest's reads into rounds, each after
	// probePause, so a moment of machine noise sets at most one round;
	// warmReads unmeasured accurate reads fill the probe memo first.
	probeOps      = 1000
	cheapProbeOps = 3000
	probeRounds   = 10
	probePause    = 300 * time.Millisecond
	warmReads     = 100
)

func ingestOptions(dir string) hsq.Options { return hsq.Options{Epsilon: eps, Dir: dir} }

func runIngest(p *pass) error {
	r, dir, err := setUp(p, ingestSetups, func(d string) (*rig, error) { return openRig(ingestOptions(d)) }, (*rig).close)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			r.close() //nolint:errcheck // error path; the first error is returned
		}
	}()

	cs := r.client.Stream(ingestStream)
	gen := workload.NewUniform(p.cfg.seed)
	buf := make([]int64, ingestStepValues)
	// The phase is a fixed number of whole merge cycles, about --seconds
	// long on a 2-core Xeon, so every run ends in the same warehouse
	// state and the reads after it see the same layout. The live heap is
	// sampled after every cycle and averaged.
	total := min(ingestMaxSteps, max(ingestCycle, ingestStepsPerSecond*p.cfg.seconds/ingestCycle*ingestCycle))
	var (
		values int64
		busy   time.Duration // of the current cycle
		rates  []float64     // values per busy second, one per cycle
		steps  int
		st     *hsq.Stream
	)
	rm := startRuntimeMeter()
	for steps < total {
		for i := range buf {
			buf[i] = gen.Next()
		}
		t0 := time.Now()
		d, err := p.sendStep(cs, buf, int64(steps+1))
		p.attempted++
		if err != nil {
			p.failed++
			return fmt.Errorf("step %d: %w", steps+1, err)
		}
		p.dist("step_ms", "ms").add(d)
		busy += time.Since(t0)
		values += int64(len(buf))
		steps++
		if steps%ingestCycle == 0 {
			rates = append(rates, float64(ingestCycle*ingestStepValues)/busy.Seconds())
			busy = 0
			p.recordHeap()
		}
		if st == nil {
			// The server creates the stream on the client's first frame.
			var ok bool
			if st, ok = r.db.Lookup(ingestStream); !ok {
				return fmt.Errorf("stream %s missing after its first step", ingestStream)
			}
		}
	}
	// The median over cycles: a burst of machine noise costs one cycle.
	p.vals["ingest_values_per_s"] = median(rates)
	if p.tr != nil {
		rm.record(p, steps)
		tot := totalsByName(p.tr.snapshot())
		p.layer["hsqclient.observe_ns_per_value"] = perUnit(tot, "hsqclient.Stream.Observe", time.Nanosecond)
		ss := r.srv.Stats()
		p.layer["ingest.values_per_frame"] = ratio(float64(ss.Values), float64(ss.Batches))
		p.layer["ingest.dup_frames"] = float64(ss.DupFrames)
		io := st.DiskStats()
		p.layer["disk.seq_writes_per_value"] = ratio(float64(io.SeqWrites), float64(values))
		p.layer["disk.seq_reads_per_value"] = ratio(float64(io.SeqReads), float64(values))
		p.layer["partition.count"] = float64(st.PartitionCount())
	}
	if got := st.TotalCount(); got != values {
		p.violations = append(p.violations, fmt.Sprintf("stream %s holds %d values, %d were acknowledged", ingestStream, got, values))
	}
	if got := st.StreamCount(); got != 0 {
		p.violations = append(p.violations, fmt.Sprintf("stream %s holds %d live values after its last step was sealed", ingestStream, got))
	}
	size, err := dirSize(dir)
	if err != nil {
		return err
	}
	p.vals["stored_bytes_per_value"] = float64(size) / float64(values)
	fmt.Printf("phase ingest: %d steps, %d values, %d cycles\n", steps, values, len(rates))

	// Reads on the state the phase left, for the read metrics. Every
	// step is sealed, so the reader's live count is 0.
	rd := &reader{
		p: p, db: r.db, st: st, rng: rand.New(rand.NewSource(p.cfg.seed)),
		plan:    []byte(`{"streams":["` + ingestStream + `"],"phis":[0.5,0.9,0.99]}`),
		planKey: func(string) string { return ingestStream },
	}
	for i := 0; i < warmReads; i++ {
		if err := rd.run("accurate"); err != nil {
			return err
		}
	}
	rd.qt = queryTotals{}
	// Each round runs its accurate reads before the cheap ones. Spread
	// among the polls, the accurate reads' probes evicted the polls' memo
	// entries often enough (about 8% of polls) to put the poll p95 on the
	// edge between memo hits and fresh bisections.
	io0, memo0 := st.DiskStats(), st.ProbeMemoStats()
	for round := 0; round < probeRounds; round++ {
		time.Sleep(probePause)
		if err := rd.do(probeOps/probeRounds, "accurate"); err != nil {
			return err
		}
		if err := rd.do(cheapProbeOps/probeRounds, "quick", "poll", "plan"); err != nil {
			return err
		}
	}
	if p.tr != nil {
		p.recordQueryLayers(rd.qt, st.DiskStats().Sub(io0), memo0, st.ProbeMemoStats())
		if err := p.summaryReplay(st, 200); err != nil {
			return err
		}
		if err := p.planReplay(r.db, rd.plan, 200); err != nil {
			return err
		}
		p.recordPlanLayers()
	}
	closed = true
	if err := r.close(); err != nil {
		return err
	}

	// The oracle regenerates every acknowledged value from the seed.
	gen = workload.NewUniform(p.cfg.seed)
	o := oracle.New(int(values))
	for i := int64(0); i < values; i++ {
		o.Add(gen.Next())
	}
	p.finishChecks(map[string]*oracle.Oracle{ingestStream: o})

	if p.tr != nil {
		regen := workload.NewUniform(p.cfg.seed)
		step := func(int) []int64 { return workload.Fill(regen, ingestStepValues) }
		if err := p.writeReplay(dir+"-replay", ingestOptions(""), step, ingestCycle); err != nil {
			return fmt.Errorf("write replay: %w", err)
		}
	}
	return nil
}
