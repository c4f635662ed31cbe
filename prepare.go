package farmer

import (
	"repro/internal/dataset"
)

// Snapshot is the immutable compiled form of a dataset: the transposed
// table, per-item row bitsets, the item frequency order, and (lazily, per
// consequent class) the ORD row permutation with its own transposed table.
// Build one with Prepare when the same dataset is mined repeatedly — every
// Run* entry point accepts it through the options' Prepared field and
// skips its per-run build phase. A snapshot is safe to share across
// concurrent runs of any miner.
type Snapshot = dataset.Snapshot

// Prepare validates d and compiles it into a reusable Snapshot. The
// snapshot is pinned to this exact *Dataset: pass the same pointer to the
// Run* calls that reuse it (a mismatch is an error), and do not mutate the
// dataset afterwards.
//
// Reuse is observable in the run statistics: Stats().PrepareReused is 1
// for a run that was handed a snapshot and Timings.Setup collapses to the
// residual per-run work. The mined groups and the deterministic counters
// are identical with and without a snapshot.
func Prepare(d *Dataset) (*Snapshot, error) {
	return dataset.NewSnapshot(d)
}

// ParallelFallbackRows is the input-size crossover of RunFARMER's auto
// parallel mode (Workers < 0): datasets with fewer rows run the sequential
// miner, larger ones the work-stealing scheduler with GOMAXPROCS workers.
// At bench scale (≈20 rows) the scheduler's rejected-set bookkeeping and
// deferred result merge cost more than the enumeration itself on some
// datasets (BENCH_core.json: MineParallelW2 loses to Mine on LC), while
// the paper-scale datasets (62–181 rows) amortize them. An explicit positive
// Workers count always runs the scheduler.
const ParallelFallbackRows = 32
