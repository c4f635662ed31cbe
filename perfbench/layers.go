package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	farmer "repro"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/serve"
)

// perLayer lists the metrics a traced run reports, with their units. A
// metric of a layer the workload does not exercise reads 0; README.md
// names the workload each one is meant for.
var perLayer = []struct{ name, unit string }{
	// Workload-level breakdowns of the measured (untraced) window.
	{"latency_samples", "count"},
	{"latency_p99_ms", "ms"},
	{"generator_late_p99_ms", "ms"},
	{"budget_gap", "ratio"},
	// The span recorder itself.
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.spans", "count"},
	{"self.op_ms", "ms"},
	{"self.resolve_ms", "ms"},
	{"self.view_ms", "ms"},
	{"self.search_ms", "ms"},
	{"self.encode_ms", "ms"},
	{"self.http_ms", "ms"},
	// serve
	{"serve.overhead_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.not_modified_frac", "ratio"},
	{"serve.encode_ms", "ms"},
	{"serve.body_kb", "KB"},
	{"serve.resolve_us", "us"},
	{"serve.put_ms", "ms"},
	{"serve.rejected_frac", "ratio"},
	// dataset, discretize, store
	{"dataset.parse_ms", "ms"},
	{"dataset.prepare_ms", "ms"},
	{"dataset.view_ms", "ms"},
	{"discretize.equal_depth_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.load_ms", "ms"},
	{"store.bytes_per_snapshot", "B"},
	// core
	{"core.search_ms", "ms"},
	{"core.setup_ms", "ms"},
	{"core.nodes", "count"},
	{"core.ns_per_node", "ns"},
	{"core.prune_ratio", "ratio"},
	{"core.emit_ratio", "ratio"},
	{"core.partitions_ms", "ms"},
	{"core.merge_ms", "ms"},
	{"core.parallel_speedup", "ratio"},
	{"core.w1_ratio", "ratio"},
	{"core.topk_dfs_nodes", "count"},
	{"core.topk_bestfirst_nodes", "count"},
	{"core.topk_dfs_ms", "ms"},
	{"core.topk_bestfirst_ms", "ms"},
	{"core.anytime_nodes_per_ms", "1/ms"},
	{"core.minelb_ms", "ms"},
	// engine, bitset
	{"engine.arena_mb", "MB"},
	{"engine.allocs_per_query", "count"},
	{"bitset.andcount_ns", "ns"},
	// baselines
	{"charm.mine_ms", "ms"},
	{"closet.mine_ms", "ms"},
	{"columne.mine_ms", "ms"},
	{"carpenter.mine_ms", "ms"},
	{"cobbler.mine_ms", "ms"},
	// cluster
	{"cluster.overhead_ratio", "ratio"},
	{"cluster.polls_per_job", "count"},
	{"cluster.empty_poll_frac", "ratio"},
	{"cluster.wire_kb_per_job", "KB"},
}

func knownLayer(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

// samples collects per-operation measurements by name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }
func (s samples) mean(name string) float64   { return mean(s[name]) }
func (s samples) sum(name string) float64 {
	t := 0.0
	for _, v := range s[name] {
		t += v
	}
	return t
}

// replayer replays a workload's distinct operations through the layer
// calls in the order the service makes them, with a span around each:
// resolve (Registry.Entry), view (Snapshot.ForConsequent), search (the
// Run* call, or MinePartitions then MergePartials for parallel FARMER),
// encode (wire records + json.Marshal), and the HTTP round trip of the
// same spec as a sibling span. A nil recorder replays untraced.
type replayer struct {
	rec *Recorder
	reg *serve.Registry
	cl  *client // the HTTP sibling's target, with the result cache off
	chk *checker
	op  int64
	s   samples
}

func newReplayer(rec *Recorder, reg *serve.Registry, cl *client, chk *checker) *replayer {
	return &replayer{rec: rec, reg: reg, cl: cl, chk: chk, s: samples{}}
}

// span times fn inside a span named name under parent and returns its
// duration.
func (rp *replayer) span(name string, parent int, fn func() error) (time.Duration, error) {
	id := rp.rec.Start(rp.op, name, parent)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	rp.rec.End(id)
	return d, err
}

// query replays one query spec and books its layer measurements.
func (rp *replayer) query(spec serve.QuerySpec) error { return rp.queryVia(spec, spec) }

// queryVia replays spec through the library and sends wire over HTTP —
// for a service whose runner mines the wire spec differently, as the
// cluster coordinator does.
func (rp *replayer) queryVia(spec, wire serve.QuerySpec) error {
	rp.op++
	ctx := context.Background()
	root := rp.rec.Start(rp.op, "op", 0)
	t0 := time.Now()
	defer func() {
		rp.rec.End(root)
		rp.s.add("op_ms", ms(time.Since(t0)))
	}()

	var (
		d    *farmer.Dataset
		snap *farmer.Snapshot
	)
	dur, err := rp.span("resolve", root, func() (err error) {
		d, snap, _, err = rp.reg.Entry(spec.Dataset)
		return err
	})
	if err != nil {
		return err
	}
	rp.s.add("resolve_us", float64(dur)/float64(time.Microsecond))
	cons, err := consequentOf(d, spec)
	if err != nil {
		return err
	}
	covered := dur
	if spec.Miner == "farmer" || spec.Miner == "topk" || spec.Miner == "columne" {
		dur, err = rp.span("view", root, func() error {
			_, err := snap.ForConsequent(cons)
			return err
		})
		if err != nil {
			return err
		}
		rp.s.add("view_ms", ms(dur))
		covered += dur
	}

	var res farmer.MinerResult
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if spec.Miner == "farmer" && spec.Workers != 0 {
		opt := farmer.MineOptions{MinSup: max(spec.MinSup, 1), MinConf: spec.MinConf, MinChi: spec.MinChi,
			ComputeLowerBounds: spec.LowerBounds, Prepared: snap}
		var part *core.Partial
		pd, err := rp.span("partitions", root, func() (err error) {
			part, err = core.MinePartitions(ctx, d, cons, opt, plan.Universe(d.NumRows()), spec.Workers)
			return err
		})
		if err != nil {
			return err
		}
		md, err := rp.span("merge", root, func() (err error) {
			res, err = core.MergePartials(ctx, d, cons, opt, []*core.Partial{part})
			return err
		})
		if err != nil {
			return err
		}
		rp.s.add("partitions_ms", ms(pd))
		rp.s.add("merge_ms", ms(md))
		dur = pd + md
	} else {
		dur, err = rp.span("search", root, func() (err error) {
			res, err = mine(ctx, d, snap, spec)
			return err
		})
		if err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	covered += dur
	rp.s.add("search_ms", ms(dur))
	rp.s.add(spec.Miner+".mine_ms", ms(dur))
	rp.s.add("allocs", float64(ms1.Mallocs-ms0.Mallocs))
	st := res.Stats()
	rp.s.add("arena_mb", float64(st.ArenaBytes)/(1<<20))
	rp.book(spec, res, dur)

	var lines [][]byte
	enc, err := rp.span("encode", root, func() (err error) {
		lines, err = encodeRecords(records(d, res))
		return err
	})
	if err != nil {
		return err
	}
	rp.s.add("encode_ms", ms(enc))
	covered += enc

	var resp response
	hd, err := rp.span("http", root, func() (err error) {
		resp, err = rp.cl.query(wire, "")
		return err
	})
	if err != nil {
		return err
	}
	if _, err := rp.chk.check(wire, resp.body); err != nil {
		return err
	}
	if recs, _, _ := splitBody(resp.body); !spec.Budgeted() && len(recs) != len(lines) {
		return fmt.Errorf("replayed %s/%s: %d records served, %d replayed", spec.Miner, spec.Dataset, len(recs), len(lines))
	}
	rp.s.add("http_ms", ms(hd))
	rp.s.add("overhead_ms", ms(hd-dur-enc))
	rp.s.add("unattributed_ms", ms(max(0, hd-covered)))
	return nil
}

// book records the core-layer counters of one library run.
func (rp *replayer) book(spec serve.QuerySpec, res farmer.MinerResult, dur time.Duration) {
	st := res.Stats()
	switch {
	case spec.Miner == "farmer" && spec.Workers == 0:
		rp.s.add("core.search_ms", ms(st.Timings.Search))
		rp.s.add("core.setup_ms", ms(st.Timings.Setup))
		rp.s.add("core.search_ns", float64(st.Timings.Search))
		rp.s.add("core.nodes", float64(st.NodesVisited))
		rp.s.add("core.pruned", float64(st.PrunedBackScan+st.PrunedLooseBound+st.PrunedTightBound+st.PrunedChiBound))
		rp.s.add("core.emitted", float64(st.GroupsEmitted))
		rp.s.add("core.rejected", float64(st.GroupsNotInterest))
	case spec.Miner == "topk" && spec.Budgeted():
		if tk, ok := res.(*farmer.TopKResult); ok && spec.MaxMillis > 0 {
			rp.s.add("core.anytime_nodes_per_ms", float64(tk.NodesExpanded)/float64(spec.MaxMillis))
		}
	case spec.Miner == "topk":
		rp.s.add("core.topk_dfs_nodes", float64(st.NodesVisited))
		rp.s.add("core.topk_dfs_ms", ms(dur))
	}
}

// replayPasses runs ops once untraced and once traced, writes the spans,
// and fills in the trace, self-time and replay-derived layer metrics.
func replayPasses(cfg runConfig, rep *report, name string, ops func(rp *replayer) error, mk func(rec *Recorder) *replayer) error {
	t0 := time.Now()
	if err := ops(mk(nil)); err != nil {
		return err
	}
	untraced := time.Since(t0)
	rec := NewRecorder()
	traced := mk(rec)
	t0 = time.Now()
	if err := ops(traced); err != nil {
		return err
	}
	tracedDur := time.Since(t0)
	if err := rec.WriteFile(spanFile(cfg, name)); err != nil {
		return err
	}
	spans := rec.Spans()
	sum := summarize(spans)
	s := traced.s
	l := rep.layer
	l["trace.overhead_frac"] = ratio(tracedDur.Seconds()-untraced.Seconds(), untraced.Seconds())
	l["trace.spans"] = float64(len(spans))
	l["trace.unattributed_frac"] = ratio(s.sum("unattributed_ms"), s.sum("http_ms"))
	for _, n := range []string{"op", "resolve", "view", "search", "encode", "http"} {
		l["self."+n+"_ms"] = sum.selfMS[n]
	}
	l["serve.overhead_ms"] = median(s["overhead_ms"])
	l["serve.encode_ms"] = s.mean("encode_ms")
	l["serve.resolve_us"] = s.mean("resolve_us")
	l["engine.arena_mb"] = s.mean("arena_mb")
	l["engine.allocs_per_query"] = s.mean("allocs")
	l["core.partitions_ms"] = s.mean("partitions_ms")
	l["core.merge_ms"] = s.mean("merge_ms")
	l["core.search_ms"] = s.mean("core.search_ms")
	l["core.setup_ms"] = s.mean("core.setup_ms")
	l["core.nodes"] = s.sum("core.nodes")
	l["core.ns_per_node"] = ratio(s.sum("core.search_ns"), s.sum("core.nodes"))
	l["core.prune_ratio"] = ratio(s.sum("core.pruned"), s.sum("core.nodes"))
	l["core.emit_ratio"] = ratio(s.sum("core.emitted"), s.sum("core.emitted")+s.sum("core.rejected"))
	l["core.topk_dfs_nodes"] = s.sum("core.topk_dfs_nodes")
	l["core.topk_dfs_ms"] = s.sum("core.topk_dfs_ms")
	l["core.anytime_nodes_per_ms"] = s.mean("core.anytime_nodes_per_ms")
	for metric, sample := range uploadMetrics {
		l[metric] = s.mean(sample)
	}
	for _, m := range []string{"charm", "closet", "columne", "carpenter", "cobbler"} {
		l[m+".mine_ms"] = s.mean(m + ".mine_ms")
	}
	rep.detail["replay_ops"] = sum.ops
	rep.detail["replay_untraced_s"] = untraced.Seconds()
	rep.detail["replay_traced_s"] = tracedDur.Seconds()
	return nil
}

// uploadMetrics maps the upload-path layer metrics to the replay samples
// they are the mean of.
var uploadMetrics = map[string]string{
	"dataset.parse_ms":          "parse_ms",
	"discretize.equal_depth_ms": "discretize_ms",
	"dataset.prepare_ms":        "prepare_ms",
	"dataset.view_ms":           "first_view_ms",
	"store.put_ms":              "store_put_ms",
	"store.load_ms":             "store_load_ms",
	"store.bytes_per_snapshot":  "snapshot_bytes",
	"serve.put_ms":              "serve_put_ms",
}

// andCountNS times the 8192-bit bitset AndCount kernel.
func andCountNS() float64 {
	a, b := bitset.New(8192), bitset.New(8192)
	for i := 0; i < 8192; i += 3 {
		a.Set(i)
	}
	for i := 0; i < 8192; i += 5 {
		b.Set(i)
	}
	const n = 200000
	var sink int
	var best time.Duration
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sink += a.AndCount(b)
		}
		if d := time.Since(t0); rep == 0 || d < best {
			best = d
		}
	}
	if sink < 0 {
		fmt.Println(sink)
	}
	return float64(best) / n
}
