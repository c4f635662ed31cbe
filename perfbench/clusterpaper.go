package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

const (
	clusterWorkers = 2
	// clusterChunks is how many partition leases a FARMER job is cut into.
	clusterChunks = 4
	// clusterPoll paces the workers' empty polls.
	clusterPoll = 5 * time.Millisecond
)

// clusterJobs are the paper-batch FARMER points that stay under half a
// second through the cluster, two of them again at minconf 0.8, plus
// bench-scale CHARM jobs, which travel as whole-universe leases. The
// median falls on a FARMER job, whose latency is mostly mining rather
// than poll timing. The BC and PC points are left out: leased as
// partitions they take 1.2–1.5 s against 0.02–0.15 s sequentially.
func clusterJobs() []serve.QuerySpec {
	ct40, all47 := farmerSpec("CT", 40, 0, false), farmerSpec("ALL", 47, 0, false)
	ct40.MinConf, all47.MinConf = 0.8, 0.8
	return []serve.QuerySpec{
		farmerSpec("CT", 40, 0, false),
		farmerSpec("CT", 39, 0, false),
		farmerSpec("ALL", 47, 0, false),
		ct40,
		all47,
		{Miner: "charm", Dataset: "CT-bench", MinSup: 9},
		{Miner: "charm", Dataset: "ALL-bench", MinSup: 10},
	}
}

// countingTransport counts what the cluster workers send and receive:
// polls, empty polls (no lease), and wire bytes both ways.
type countingTransport struct {
	base       http.RoundTripper
	polls      atomic.Int64
	emptyPolls atomic.Int64
	wire       atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		t.wire.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	poll := strings.HasSuffix(req.URL.Path, "/cluster/v1/poll")
	if poll {
		t.polls.Add(1)
	}
	resp.Body = &countingBody{rc: resp.Body, t: t, poll: poll}
	return resp, nil
}

type countingBody struct {
	rc     io.ReadCloser
	t      *countingTransport
	poll   bool
	n      int64
	closed bool
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	b.t.wire.Add(int64(n))
	return n, err
}

// Close books an empty poll: the coordinator answers "{}" when it has no
// lease to hand out.
func (b *countingBody) Close() error {
	if b.poll && !b.closed && b.n <= 3 {
		b.t.emptyPolls.Add(1)
	}
	b.closed = true
	return b.rc.Close()
}

func (t *countingTransport) snapshot() [3]int64 {
	return [3]int64{t.polls.Load(), t.emptyPolls.Load(), t.wire.Load()}
}

func runClusterPaper(cfg runConfig, rep *report) error {
	specs := clusterJobs()
	names := []string{"CT", "ALL", "CT-bench", "ALL-bench"}
	bench := map[string]bool{"CT-bench": true, "ALL-bench": true}
	ct := &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	svcCfg := svcConfig{
		managerWorkers: 1, clusterWorkers: clusterWorkers, clusterChunks: clusterChunks,
		pollInterval: clusterPoll, workerClient: &http.Client{Transport: ct},
	}
	rep.env.LoadModel = "closed loop, 1 client, whole shuffled cycles of 7 jobs through a coordinator with 2 in-process workers (Workers 1 each, 4 leases per FARMER job, 5 ms poll), result cache off"
	rep.env.ManagerWorkers, rep.env.MiningThreads, rep.env.ClientConns = 1, 2, 1

	p, setupS, err := timedSetup(setupRuns, func() (*paperSetup, error) {
		return setupPaper(cfg.seed, names, bench, svcCfg)
	}, (*paperSetup).close)
	if err != nil {
		return err
	}
	defer p.close()

	chk := newChecker()
	if err := chk.prepare(context.Background(), specs, p.data, false); err != nil {
		return err
	}
	lp := newLoop(paperSLO)
	before := ct.snapshot()
	cycleLoop(cfg, rep, lp, p.cl, chk, specs, samplesFor(90))
	after := ct.snapshot()
	lp.finish(rep, setupS)
	jobs := float64(lp.attempted)
	polls := float64(after[0] - before[0])
	rep.layer["cluster.polls_per_job"] = polls / jobs
	rep.layer["cluster.empty_poll_frac"] = ratio(float64(after[1]-before[1]), polls)
	rep.layer["cluster.wire_kb_per_job"] = float64(after[2]-before[2]) / 1024 / jobs
	if !cfg.trace {
		return nil
	}

	// The replay mines FARMER jobs as partitions over the whole universe
	// at 2 workers, then merges: the cluster's work without its protocol.
	replaySpecs := make([]serve.QuerySpec, len(specs))
	for i, s := range specs {
		if s.Miner == "farmer" {
			s.Workers = clusterWorkers
		}
		replaySpecs[i] = s
	}
	if err := replayPasses(cfg, rep, "cluster-paper", func(rp *replayer) error {
		for i, spec := range replaySpecs {
			if err := rp.queryVia(spec, specs[i]); err != nil {
				return err
			}
		}
		return nil
	}, func(rec *Recorder) *replayer { return newReplayer(rec, p.svc.reg, p.cl, chk) }); err != nil {
		return err
	}

	// cluster.overhead_ratio: the same jobs, cluster against a standalone
	// service (no coordinator, sequential FARMER), alternating.
	solo, err := setupPaper(cfg.seed, names, bench, svcConfig{managerWorkers: 1})
	if err != nil {
		return err
	}
	defer solo.close()
	var clusterT, soloT time.Duration
	for _, spec := range specs {
		for _, side := range []*client{p.cl, solo.cl} {
			t0 := time.Now()
			resp, err := side.query(spec, "")
			d := time.Since(t0)
			if err == nil {
				_, err = chk.check(spec, resp.body)
			}
			if err != nil {
				return err
			}
			if side == p.cl {
				clusterT += d
			} else {
				soloT += d
			}
		}
	}
	rep.layer["cluster.overhead_ratio"] = ratio(clusterT.Seconds(), soloT.Seconds())
	return nil
}
