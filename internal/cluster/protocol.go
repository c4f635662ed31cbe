// Package cluster shards FARMER mining across farmerd nodes. A coordinator
// sits inside one daemon's job manager (via serve.Manager.SetRunnerBuilder)
// and turns submitted FARMER jobs into leases over slices of the
// enumeration-task universe (plan.Partition); the other miners do not split
// that way and run on the coordinator's local runner. Workers — other
// farmerd processes started with -worker-of — poll for leases, fetch the
// compiled dataset by store-format snapshot digest (or load it from their
// own store), mine their slice, and stream the partial back. The
// coordinator merges partials with core.MergePartials, so the distributed
// result — rule groups, NDJSON bytes, and engine.Stats counters — is
// identical to the single-node run; plan.Coverage is the ledger that
// proves every subtask was executed exactly once before the merge is
// allowed to happen.
//
// The protocol is pull-based HTTP/JSON under /cluster/v1 on the
// coordinator's own listener:
//
//	POST /cluster/v1/poll                     worker asks for a lease
//	GET  /cluster/v1/snapshots/{digest}       encoded snapshot bytes
//	POST /cluster/v1/leases/{id}/renew        heartbeat; 404 = abandon run
//	POST /cluster/v1/leases/{id}/results      NDJSON frames, terminal "end"
//
// Leases carry deadlines. A worker that dies (or stalls) simply stops
// renewing; the reaper re-queues the expired lease — split in two, so a
// straggler's slice spreads over the survivors — with retry backoff.
// Results commit atomically on the terminal frame: a half-streamed result
// from a dying worker is discarded wholesale, and a zombie worker
// reporting after its lease expired gets ErrLeaseGone and discards
// locally.
package cluster

import (
	"encoding/json"

	"repro/internal/plan"
	"repro/internal/serve"
)

// Lease is one unit of claimed work, as returned by POST /cluster/v1/poll:
// one plan.Partition of a FARMER job, which the worker mines with
// core.MinePartitions and reports as a single partial frame.
type Lease struct {
	ID  string `json:"id"`
	Job string `json:"job"`
	// Spec is the submitted job spec; workers derive mining options from
	// it exactly as a standalone daemon would.
	Spec serve.JobSpec `json:"spec"`
	// Partition is the leased universe slice.
	Partition plan.Partition `json:"partition"`
	// SnapshotName and Digest identify the compiled dataset: workers
	// fetch-or-load by digest and may cache it under the name.
	SnapshotName string `json:"snapshot_name"`
	Digest       string `json:"digest"`
	// TTLMS is the lease deadline budget; workers renew at TTLMS/3 pace.
	TTLMS int64 `json:"ttl_ms"`
}

// PollRequest is the body of POST /cluster/v1/poll.
type PollRequest struct {
	Worker string `json:"worker"`
}

// PollResponse carries at most one lease; an absent lease means no work
// is currently assignable and the worker should poll again shortly.
type PollResponse struct {
	Lease *Lease `json:"lease,omitempty"`
}

// Frame is one NDJSON line of POST /cluster/v1/leases/{id}/results.
// Exactly one field is set. A result body is: at most one partial frame,
// then one end frame; the coordinator commits nothing until the end frame
// arrives intact.
type Frame struct {
	// Partial is a serialized core.Partial. Kept as raw JSON here so the
	// coordinator controls when it is decoded.
	Partial json.RawMessage `json:"partial,omitempty"`
	// End terminates the stream.
	End *EndFrame `json:"end,omitempty"`
}

// EndFrame closes a lease's result stream.
type EndFrame struct {
	// Error is the worker-side failure, empty on success. The
	// coordinator requeues a failed lease with backoff until its attempt
	// budget runs out.
	Error string `json:"error,omitempty"`
}
