package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	farmer "repro"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/synth"
)

// ingestDatasets rotate through ingest-churn's uploads, smallest first:
// CSV bodies of about 0.6, 2.3, 7.6 and 10.6 MB.
var ingestDatasets = []string{"CT", "ALL", "PC", "BC"}

const (
	// ingestVersions seeded versions of each dataset alternate, so every
	// upload replaces the registered data with different data.
	ingestVersions = 2
	// ingestReopenEvery is how many uploads pass between restarts of the
	// store-backed service.
	ingestReopenEvery = 4
	ingestSLO         = time.Second
	// storeFlushPolicy states what the store does per upload (see
	// store.atomicWriteFile and Store.Put).
	storeFlushPolicy = "per Put: snapshot file written to a temp file, fsynced, renamed; then MANIFEST.json the same way (the commit point); directory not fsynced"
)

// ingestCSV returns version v of the named paper shape as a matrix CSV:
// the Table 1 stand-in values with a gene order drawn from the seed and
// the version. Versions differ in every item id, so each upload really
// replaces the registered data, while every version poses the same
// search.
func ingestCSV(name string, seed int64, v int) ([]byte, error) {
	m, err := paperMatrix(name, 1_000_003*seed+7919*int64(v+1))
	if err != nil {
		return nil, err
	}
	return matrixCSV(m)
}

// ingestQueries are the queries made after each upload: FARMER with every
// class-0 row required (the first pays the view build), the same spec
// again (served from the result cache), and an exact top-10.
func ingestQueries(ds string) []serve.QuerySpec {
	spec, _ := synth.PaperSpec(ds)
	c0 := spec.Class1Rows
	return []serve.QuerySpec{
		farmerSpec(ds, c0, 0, false),
		farmerSpec(ds, c0, 0, false),
		{Miner: "topk", Dataset: ds, MinSup: c0, K: 10, Measure: "chi2"},
	}
}

type ingestState struct {
	cfg     svcConfig
	svc     *service
	cl      *client
	csv     map[string][][]byte
	current map[string]int
}

func (s *ingestState) close() {
	if s.svc != nil {
		s.cl.close()
		s.svc.close()
	}
	_ = os.RemoveAll(s.cfg.storeDir) // scratch; the run directory is removed too
}

// restart closes the service and opens a new one over the same store.
func (s *ingestState) restart() error {
	s.cl.close()
	s.svc.close()
	s.svc, s.cl = nil, nil
	svc, err := startService(s.cfg)
	if err != nil {
		return err
	}
	s.svc, s.cl = svc, newClient(svc.url, 1)
	return nil
}

func setupIngest(cfg runConfig) (*ingestState, error) {
	dir, err := os.MkdirTemp(cfg.workDir, "store-")
	if err != nil {
		return nil, err
	}
	s := &ingestState{
		cfg:     svcConfig{managerWorkers: 1, cacheBytes: serve.DefaultCacheBytes, storeDir: dir},
		csv:     map[string][][]byte{},
		current: map[string]int{},
	}
	for _, ds := range ingestDatasets {
		for v := 0; v < ingestVersions; v++ {
			raw, err := ingestCSV(ds, cfg.seed, v)
			if err != nil {
				return nil, err
			}
			s.csv[ds] = append(s.csv[ds], raw)
		}
	}
	if s.svc, err = startService(s.cfg); err != nil {
		return nil, err
	}
	s.cl = newClient(s.svc.url, 1)
	for _, ds := range ingestDatasets {
		if err := s.cl.putMatrix(ds, s.csv[ds][0]); err != nil {
			s.close()
			return nil, err
		}
		if _, err := s.cl.query(ingestQueries(ds)[0], ""); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// datasetFromCSV parses and discretizes an upload exactly as the
// service's matrix loader does.
func datasetFromCSV(raw []byte) (*farmer.Dataset, error) {
	m, err := farmer.ReadMatrixCSV(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	return discretize(m)
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func runIngestChurn(cfg runConfig, rep *report) error {
	rep.env.LoadModel = fmt.Sprintf("closed loop, 1 client; each step uploads a new version (seeded gene order) of one paper shape, rotating CT/ALL/PC/BC, and makes 3 queries; the service restarts over its store every %d uploads", ingestReopenEvery)
	rep.env.ManagerWorkers, rep.env.MiningThreads, rep.env.ClientConns = 1, 1, 1
	rep.env.StoreFlush = storeFlushPolicy

	s, setupS, err := timedSetup(setupRuns, func() (*ingestState, error) { return setupIngest(cfg) }, (*ingestState).close)
	if err != nil {
		return err
	}
	defer s.close()

	// References for every version of every dataset, outside set-up.
	refs := map[string][]*checker{}
	var inputBytes int64
	for _, ds := range ingestDatasets {
		for v := 0; v < ingestVersions; v++ {
			d, err := datasetFromCSV(s.csv[ds][v])
			if err != nil {
				return err
			}
			chk := newChecker()
			if err := chk.prepare(context.Background(), ingestQueries(ds), map[string]*farmer.Dataset{ds: d}, false); err != nil {
				return err
			}
			refs[ds] = append(refs[ds], chk)
		}
		inputBytes += int64(len(s.csv[ds][0]))
	}
	rep.env.StoreLRUBytes, rep.env.StoreWorkingSet = store.DefaultCacheBytes, inputBytes
	rep.env.ResultCacheBytes = s.cfg.cacheBytes

	lp := newLoop(ingestSLO)
	query := func(spec serve.QuerySpec) error {
		resp, err := s.cl.query(spec, "")
		if err != nil {
			return err
		}
		lp.body(len(resp.body))
		_, err = refs[spec.Dataset][s.current[spec.Dataset]].check(spec, resp.body)
		return err
	}

	var puts, reopens []float64
	perOp := map[string][]float64{} // latencies by operation kind, for the detail line
	lp.begin()
	// Each rotation uploads every dataset once, each upload followed by
	// its three queries, then restarts the service: 17 operations, an odd
	// count (see cycleLoop).
	for time.Since(lp.start) < cfg.seconds || len(puts) < samplesFor(70) {
		for _, ds := range ingestDatasets {
			v := (s.current[ds] + 1) % ingestVersions
			t0 := time.Now()
			err := s.cl.putMatrix(ds, s.csv[ds][v])
			lat := time.Since(t0)
			lp.record(rep, lat, err)
			if err != nil {
				continue
			}
			puts = append(puts, ms(lat))
			perOp["put/"+ds] = append(perOp["put/"+ds], ms(lat))
			s.current[ds] = v
			for i, q := range ingestQueries(ds) {
				t0 := time.Now()
				err := query(q)
				lat := time.Since(t0)
				lp.record(rep, lat, err)
				key := fmt.Sprintf("q%d/%s", i+1, ds)
				perOp[key] = append(perOp[key], ms(lat))
			}
		}
		// One operation: restart over the store until every dataset has
		// answered its first query.
		t0 := time.Now()
		if err := s.restart(); err != nil {
			return err
		}
		var err error
		for _, ds := range ingestDatasets {
			if err == nil {
				err = query(ingestQueries(ds)[0])
			}
		}
		lat := time.Since(t0)
		lp.record(rep, lat, err)
		reopens = append(reopens, ms(lat))
	}
	lp.end()
	lp.finish(rep, setupS)
	medians := map[string]float64{"reopen": median(reopens)}
	for k, v := range perOp {
		medians[k] = median(v)
	}
	rep.detail["per_op_p50_ms"] = medians
	var live int64
	for _, ds := range ingestDatasets {
		live += int64(len(s.csv[ds][s.current[ds]]))
	}
	sp := sortedCopy(puts)
	rep.detail["put_p50_ms"] = percentile(sp, 50)
	rep.detail["put_p70_ms"] = percentile(sp, 70)
	rep.detail["reopen_ms"] = median(reopens)
	rep.detail["store_bytes_per_input_byte"] = ratio(float64(dirBytes(s.cfg.storeDir)), float64(live))
	rep.detail["puts"] = len(puts)
	rep.detail["reopens"] = len(reopens)
	rep.detail["put_p70_supported"] = supported(len(puts), 70)
	if !cfg.trace {
		return nil
	}
	var ups []upload
	for _, ds := range ingestDatasets {
		ups = append(ups, upload{name: ds, csv: s.csv[ds][(s.current[ds]+1)%ingestVersions]})
	}
	return replayPasses(cfg, rep, "ingest-churn", func(rp *replayer) error { return replayUploads(cfg, rp, ups, s.cl.putMatrix) },
		func(rec *Recorder) *replayer { return newReplayer(rec, s.svc.reg, s.cl, nil) })
}

// upload is one dataset upload the replay pushes through the PUT path.
type upload struct {
	name string
	csv  []byte
}

// replayUploads replays uploads through the layers the service's PUT path
// calls — parse, discretize, prepare, first view, store put — with the
// HTTP upload (sent by put) as a sibling span, then times the
// registry-level load of the same CSVs and a cold store load, on scratch
// stores.
func replayUploads(cfg runConfig, rp *replayer, ups []upload, put func(name string, csv []byte) error) error {
	scratch, err := os.MkdirTemp(cfg.workDir, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	st, err := store.Open(filepath.Join(scratch, "a"), store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	for i, up := range ups {
		rp.op++
		root := rp.rec.Start(rp.op, "op", 0)
		var (
			m    *farmer.Matrix
			d    *farmer.Dataset
			snap *farmer.Snapshot
		)
		steps := []struct {
			name string
			fn   func() error
		}{
			{"parse", func() (err error) { m, err = farmer.ReadMatrixCSV(bytes.NewReader(up.csv)); return err }},
			{"discretize", func() (err error) { d, err = discretize(m); return err }},
			{"prepare", func() (err error) { snap, err = farmer.Prepare(d); return err }},
			{"first_view", func() error { _, err := snap.ForConsequent(0); return err }},
			{"store_put", func() error { return st.Put(up.name, snap, uint64(i+1)) }},
			{"http_put", func() error { return put(up.name, up.csv) }},
		}
		for _, step := range steps {
			d, err := rp.span(step.name, root, step.fn)
			if err != nil {
				rp.rec.End(root)
				return fmt.Errorf("replay %s %s: %w", step.name, up.name, err)
			}
			rp.s.add(step.name+"_ms", ms(d))
		}
		rp.rec.End(root)
		if raw, _, err := st.ReadEncoded(up.name); err == nil {
			rp.s.add("snapshot_bytes", float64(len(raw)))
		}
	}

	// Registry-level upload, then a cold store load after reopening.
	regDir := filepath.Join(scratch, "b")
	rs, err := store.Open(regDir, store.Options{})
	if err != nil {
		return err
	}
	reg := serve.NewRegistryWithStore(rs)
	for _, up := range ups {
		t0 := time.Now()
		if _, err := reg.Load(up.name, "matrix", 10, bytes.NewReader(up.csv)); err != nil {
			rs.Close()
			return err
		}
		rp.s.add("serve_put_ms", ms(time.Since(t0)))
	}
	if err := rs.Close(); err != nil {
		return err
	}
	if rs, err = store.Open(regDir, store.Options{}); err != nil {
		return err
	}
	defer rs.Close()
	for _, up := range ups {
		t0 := time.Now()
		if _, _, err := rs.Load(up.name); err != nil {
			return err
		}
		rp.s.add("store_load_ms", ms(time.Since(t0)))
	}
	return nil
}
