package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/gk"
	"repro/internal/query"
	"repro/internal/wire"
)

// clientBatch is hsqclient's default batch size: the values one Batch
// frame carries when a producer calls Observe per value.
const clientBatch = 2048

// writeReplay feeds the workload's first steps back through the write
// path's layers one at a time, for the layers the program calls
// internally: the wire codec, the GK sketch at the engine's ε₂/2, and hsq's
// ObserveSlice and EndStep on a fresh DB with the workload's options. It
// runs in the traced pass only, after the timed phase.
func (p *pass) writeReplay(dir string, opts hsq.Options, step func(i int) []int64, steps int) error {
	// Wire and GK see the first fifth of the steps: their per-value costs
	// settle long before that.
	var encNs, decNs, bytes, values int64
	sk, err := gk.New(eps / 8)
	if err != nil {
		return err
	}
	var gkNs int64
	buf := make([]byte, 0, 1<<16)
	for i := 0; i < max(1, steps/5); i++ {
		vs := step(i)
		values += int64(len(vs))
		for off := 0; off < len(vs); off += clientBatch {
			f := &wire.Frame{Type: wire.TypeBatch, Seq: uint64(off + 1), StreamID: 1, Values: vs[off:min(off+clientBatch, len(vs))]}
			t0 := time.Now()
			buf, err = wire.AppendFrame(buf[:0], f)
			t1 := time.Now()
			if err != nil {
				return err
			}
			payload, err := framePayload(buf)
			if err != nil {
				return err
			}
			t2 := time.Now()
			g, err := wire.DecodeFrame(buf[0], payload)
			t3 := time.Now()
			if err != nil {
				return err
			}
			if len(g.Values) != len(f.Values) {
				return fmt.Errorf("wire replay: decoded %d values, encoded %d", len(g.Values), len(f.Values))
			}
			encNs += t1.Sub(t0).Nanoseconds()
			decNs += t3.Sub(t2).Nanoseconds()
			bytes += int64(len(buf))
		}
		t0 := time.Now()
		for _, v := range vs {
			sk.Insert(v)
		}
		sk.Reset()
		gkNs += time.Since(t0).Nanoseconds()
	}
	p.layer["wire.encode_ns_per_value"] = ratio(float64(encNs), float64(values))
	p.layer["wire.decode_ns_per_value"] = ratio(float64(decNs), float64(values))
	p.layer["wire.bytes_per_value"] = ratio(float64(bytes), float64(values))
	p.layer["gk.insert_ns_per_value"] = ratio(float64(gkNs), float64(values))

	opts.Dir = dir
	db, err := hsq.Open(opts)
	if err != nil {
		return err
	}
	st, err := db.Stream("replay")
	if err != nil {
		db.Close()
		return err
	}
	var obsNs int64
	var us hsq.UpdateStats
	values = 0
	for i := 0; i < steps; i++ {
		vs := step(i)
		values += int64(len(vs))
		t0 := time.Now()
		for off := 0; off < len(vs); off += clientBatch {
			st.ObserveSlice(vs[off:min(off+clientBatch, len(vs))])
		}
		obsNs += time.Since(t0).Nanoseconds()
		u, err := st.EndStep()
		if err != nil {
			db.Close()
			return err
		}
		us.Load += u.Load
		us.Sort += u.Sort
		us.Merge += u.Merge
		us.Summary += u.Summary
		us.Merges += u.Merges
	}
	if err := db.Close(); err != nil {
		return err
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(steps) }
	p.layer["hsq.observe_ns_per_value"] = ratio(float64(obsNs), float64(values))
	p.layer["hsq.endstep.load_ms"] = ms(us.Load)
	p.layer["hsq.endstep.sort_ms"] = ms(us.Sort)
	p.layer["hsq.endstep.merge_ms"] = ms(us.Merge)
	p.layer["hsq.endstep.summary_ms"] = ms(us.Summary)
	p.layer["partition.merges"] = float64(us.Merges)
	return nil
}

// framePayload splits an encoded frame into its payload (after the type
// byte and the uvarint length).
func framePayload(frame []byte) ([]byte, error) {
	var n, shift uint64
	for i := 1; i < len(frame) && i < 11; i++ {
		b := frame[i]
		n |= uint64(b&0x7f) << shift
		if b < 0x80 {
			if uint64(len(frame)-i-1) != n {
				return nil, fmt.Errorf("wire replay: frame length %d, payload %d", n, len(frame)-i-1)
			}
			return frame[i+1:], nil
		}
		shift += 7
	}
	return nil, fmt.Errorf("wire replay: bad frame header")
}

// tracedSource is the query executor's Source over a DB, with every
// per-member summary fetch recorded as a span under the plan's span.
type tracedSource struct {
	db     *hsq.DB
	tr     *tracer
	parent int64
	req    int64
}

func (s tracedSource) StreamNames() []string { return s.db.Streams() }

func (s tracedSource) ScopedSummary(name string, sc query.Scope) (*core.ShardSummary, error) {
	id := s.tr.begin("hsq.DB.ScopedSummary", s.parent, s.req)
	sum, err := s.db.ScopedSummary(name, sc)
	s.tr.end(id, 1)
	return sum, err
}

// planReplay re-runs the workload's plan through query.ParsePlan and
// query.Exec over a traced Source, so the executor's time splits into
// parsing, per-member summary fetches (run concurrently by Exec) and the
// executor's own merging and answering; it also times one
// MergeShardSummaries per result group directly.
func (p *pass) planReplay(db *hsq.DB, planJSON []byte, rounds int) error {
	for i := 0; i < rounds; i++ {
		req := int64(1_000_000 + i)
		root := p.tr.begin("replay.plan", 0, req)
		c := p.tr.begin("query.ParsePlan", root, req)
		plan, err := query.ParsePlan(planJSON)
		p.tr.end(c, 1)
		if err != nil {
			return err
		}
		c = p.tr.begin("query.Exec", root, req)
		res, err := query.Exec(tracedSource{db: db, tr: p.tr, parent: c, req: req}, plan)
		if err != nil {
			return err
		}
		p.tr.end(c, int64(len(res.Streams)))
		for _, g := range res.Groups {
			sums := make([]*core.ShardSummary, 0, len(g.Streams))
			for _, name := range g.Streams {
				sum, err := db.ScopedSummary(name, query.Scope{})
				if err != nil {
					return err
				}
				sums = append(sums, sum)
			}
			m := p.tr.begin("core.MergeShardSummaries", root, req)
			_, _, err := core.MergeShardSummaries(sums)
			p.tr.end(m, int64(len(sums)))
			if err != nil {
				return err
			}
		}
		p.tr.end(root, 1)
	}
	return nil
}

// recordPlanLayers derives the query-layer metrics from the plan spans.
func (p *pass) recordPlanLayers() {
	tot := totalsByName(p.tr.snapshot())
	p.layer["query.parse_us"] = perCall(tot, "query.ParsePlan", time.Microsecond)
	p.layer["query.scoped_summary_us"] = perCall(tot, "hsq.DB.ScopedSummary", time.Microsecond)
	p.layer["core.merge_us"] = perCall(tot, "core.MergeShardSummaries", time.Microsecond)
}
