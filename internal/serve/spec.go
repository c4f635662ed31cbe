package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// QuerySpec is the one versioned request body shared by POST /v1/query and
// POST /v1/jobs: which miner to run, on which registered dataset, with
// which parameters. Fields a miner does not use are ignored; unknown
// fields are rejected at decode time so a misspelled option can never be
// silently dropped. The wire format is version 1; a future incompatible
// revision will be mounted under /v2 rather than mutating these fields.
type QuerySpec struct {
	// Miner is one of "farmer", "topk", "charm", "closet", "columne",
	// "carpenter", "cobbler".
	Miner string `json:"miner"`
	// Dataset names a dataset previously registered with the service.
	Dataset string `json:"dataset"`
	// Class is the consequent class name for the class-aware miners
	// (farmer, topk, columne); empty selects class 0.
	Class string `json:"class,omitempty"`

	MinSup  int     `json:"minsup,omitempty"`
	MinConf float64 `json:"minconf,omitempty"`
	MinChi  float64 `json:"minchi,omitempty"`
	// LowerBounds asks the FARMER miner to recover each group's lower
	// bounds.
	LowerBounds bool `json:"lower_bounds,omitempty"`

	// K and Measure configure the "topk" miner.
	K       int    `json:"k,omitempty"`
	Measure string `json:"measure,omitempty"`

	// Workers selects the FARMER parallel scheduler (negative =
	// GOMAXPROCS); 0 runs sequentially with live streaming. For "topk"
	// jobs it sizes the best-first worker pool the same way.
	Workers int `json:"workers,omitempty"`

	// TimeoutMS bounds the job's run time; 0 means no deadline. Unlike
	// MaxMillis this is a hard abort: the job ends cancelled with
	// stop_reason "deadline" and whatever partial statistics it gathered.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// MaxMillis and MaxNodes are the anytime budgets of the "topk" miner:
	// the search stops within one node expansion of the wall-clock or
	// node budget and returns its best-so-far answer as a successful
	// partial result (NDJSON end frame: partial, gap, nodes_expanded).
	// Budgeted jobs run on the interactive lane and bypass cost
	// admission — the budget itself caps their cost — and their results
	// are never cached. Zero means unlimited.
	MaxMillis int64 `json:"max_millis,omitempty"`
	MaxNodes  int64 `json:"max_nodes,omitempty"`
	// Quality selects the "topk" search strategy: "" (default), "exact"
	// or "best_first" — three names of one best-first search, exact when
	// unbudgeted — "leap", or "sample". Delta is the leap relaxation factor (quality "leap"
	// prunes subtrees that cannot improve the k-th score by more than a
	// 1+delta factor, certifying the relaxation in the reported gap).
	Quality string  `json:"quality,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
}

// Budgeted reports whether the spec carries an anytime budget — what
// routes a job to the interactive lane and past cost admission.
func (s *QuerySpec) Budgeted() bool {
	return s.MaxMillis > 0 || s.MaxNodes > 0
}

// JobSpec is the historical name of QuerySpec, kept as an alias so library
// callers (the cluster coordinator's RunnerBuilder, tests) compile
// unchanged.
type JobSpec = QuerySpec

// decodeSpec parses a request body into spec, rejecting unknown fields.
func decodeSpec(r *http.Request, spec *QuerySpec) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return fmt.Errorf("bad job spec: %w", err)
	}
	return nil
}
