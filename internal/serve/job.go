package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	farmer "repro"
	"repro/internal/engine"
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// RunnerFunc executes one mining job: it emits result records as they
// become available and returns the miner's result (for its statistics).
// On cancellation it returns ctx.Err() together with partial statistics.
// Exported so a cluster coordinator can substitute distributed runners
// through Manager.SetRunnerBuilder while reusing the job machinery
// (queueing, streaming, caching, cancellation) unchanged.
type RunnerFunc func(ctx context.Context, emit func(v any) error) (farmer.MinerResult, error)

// Job is one submitted mining run. All mutable fields are guarded by mu;
// results only ever grows, and stops growing once the state is terminal.
type Job struct {
	ID   string
	Spec JobSpec

	runner RunnerFunc
	// tenant is the principal the job was admitted for; its quota slot is
	// released (and its accounting credited) when the job turns terminal.
	// Nil for cached replay jobs and for direct library submissions.
	tenant *Tenant
	// key is the canonical request hash the job is registered under in the
	// manager's singleflight table and result cache; hasKey is false for
	// cached replay jobs (they were never inflight and are never
	// re-cached).
	key    reqKey
	hasKey bool
	// cached marks a job whose records were replayed from the result cache
	// instead of mined; it is set at construction and never changes.
	cached bool

	mu      sync.Mutex
	state   State
	results []json.RawMessage
	emitted int
	// body is the complete pre-encoded NDJSON stream (every record plus
	// its newline, one contiguous buffer) of a cleanly completed run; etag
	// is its strong validator. Both are immutable once set, so replaying
	// them is a single header write and a single body write.
	body      []byte
	etag      string
	wake      chan struct{} // closed and replaced on every append / state change
	done      chan struct{} // closed once, when the state turns terminal
	cancel    context.CancelFunc
	errMsg    string
	stats     engine.Stats
	hasStats  bool
	createdAt time.Time
	startedAt time.Time
	endedAt   time.Time
	// The anytime verdict: partial marks a result that may be missing
	// groups (budget stop, deadline, cancellation); gap is the certified
	// optimality gap when hasGap; nodes is the anytime search's expansion
	// count; stopReason says what ended the run early ("budget",
	// "deadline" or "cancel"). All set before the terminal transition.
	partial    bool
	gap        float64
	hasGap     bool
	nodes      int64
	stopReason string
	// endFrame memoizes the rendered NDJSON end frame (without the
	// trailing newline) once the job is terminal; sealReplay renders it
	// just before a clean completion turns terminal.
	endFrame []byte
}

func newJob(id string, spec JobSpec, run RunnerFunc) *Job {
	return &Job{
		ID:        id,
		Spec:      spec,
		runner:    run,
		state:     StateQueued,
		wake:      make(chan struct{}),
		done:      make(chan struct{}),
		createdAt: time.Now(),
	}
}

// closedChan is shared by every born-terminal job: such a job never wakes
// a waiter and is done from birth, so it needs no channels of its own.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// newCachedJob builds a job that is born terminal: its body is the cached
// pre-encoded NDJSON of an identical completed request (shared with the
// cache entry, never copied), so streaming it replays the original run
// byte for byte without touching a worker.
func newCachedJob(id string, spec JobSpec, res cachedResult) *Job {
	now := time.Now()
	return &Job{
		ID:        id,
		Spec:      spec,
		cached:    true,
		state:     StateDone,
		emitted:   res.count,
		body:      res.body,
		etag:      res.etag,
		stats:     res.stats,
		hasStats:  res.hasStats,
		wake:      closedChan,
		done:      closedChan,
		createdAt: now,
		startedAt: now,
		endedAt:   now,
	}
}

// wakeLocked signals every waiter and re-arms the broadcast channel.
// Callers must hold mu.
func (j *Job) wakeLocked() {
	close(j.wake)
	j.wake = make(chan struct{})
}

// emit appends one result record. It is only called from the worker
// goroutine running the job, before the state turns terminal.
func (j *Job) emit(v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.results = append(j.results, raw)
	j.emitted++
	j.wakeLocked()
	j.mu.Unlock()
	return nil
}

// sealReplay flattens a cleanly completed run into its pre-encoded NDJSON
// body — every record, then the end frame the Done transition will carry —
// and attaches it with its ETag, making the job replayable through the
// zero-copy path. Called once, by the worker, after the runner returns and
// before finish, so the body can be cached before any streamer sees the
// job terminal; replay serves it only once the state is Done.
func (j *Job) sealReplay(etag string) (body []byte, count int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.endFrame = j.renderEndLocked(StateDone, "")
	body = append(encodeBody(j.results), j.endFrame...)
	j.body = append(body, '\n')
	j.etag = etag
	return j.body, len(j.results)
}

// replay returns the pre-encoded NDJSON body and ETag when the job
// completed cleanly and its body has been materialized. Callers serve the
// returned buffer as-is: it is immutable and may be shared with the
// result cache and with other in-flight responses.
func (j *Job) replay() (body []byte, etag string, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone || j.body == nil {
		return nil, "", false
	}
	return j.body, j.etag, true
}

// finish moves the job to a terminal state exactly once and records the
// final statistics (partial on cancellation).
func (j *Job) finish(state State, stats engine.Stats, hasStats bool, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.stats = stats
	j.hasStats = hasStats
	j.errMsg = errMsg
	j.endedAt = time.Now()
	close(j.done)
	j.wakeLocked()
}

// setOutcome records the anytime verdict before the terminal transition:
// the partial flag, the certified gap (when hasGap), the anytime node
// count, and what stopped the run early.
func (j *Job) setOutcome(partial bool, gap float64, hasGap bool, nodes int64, stopReason string) {
	j.mu.Lock()
	j.partial = partial
	j.gap = gap
	j.hasGap = hasGap
	j.nodes = nodes
	j.stopReason = stopReason
	j.mu.Unlock()
}

// EndFrame is the NDJSON trailer every streamed job ends with: one final
// object (distinguished from result records by its "end":true member)
// carrying the terminal state, the record count, and — for budgeted or
// interrupted runs — the partial flag, the certified optimality gap, the
// anytime node count and the stop reason. Clients read it to tell a
// complete answer from a truncated one without a second request.
type EndFrame struct {
	End     bool  `json:"end"`
	State   State `json:"state"`
	Emitted int   `json:"emitted"`
	// Partial marks a result that may be missing groups: a budget stop, a
	// deadline, or a cancellation mid-run.
	Partial bool `json:"partial,omitempty"`
	// Gap is present when the anytime search certified an optimality gap:
	// no unreported group's score exceeds the k-th kept score by more
	// than this.
	Gap *float64 `json:"gap,omitempty"`
	// NodesExpanded counts the anytime search's node expansions.
	NodesExpanded int64  `json:"nodes_expanded,omitempty"`
	StopReason    string `json:"stop_reason,omitempty"`
	Error         string `json:"error,omitempty"`
}

// endBytes renders (and memoizes) the job's end frame. It returns nil
// until the job is terminal; the returned buffer excludes the trailing
// newline and is immutable.
func (j *Job) endBytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil
	}
	if j.endFrame == nil {
		j.endFrame = j.renderEndLocked(j.state, j.errMsg)
	}
	return j.endFrame
}

// renderEndLocked renders the end frame for the given terminal state from
// the job's record count and anytime verdict. Callers must hold mu.
func (j *Job) renderEndLocked(state State, errMsg string) []byte {
	f := EndFrame{
		End:           true,
		State:         state,
		Emitted:       j.emitted,
		Partial:       j.partial,
		NodesExpanded: j.nodes,
		StopReason:    j.stopReason,
		Error:         errMsg,
	}
	if j.hasGap && j.partial {
		gap := j.gap
		f.Gap = &gap
	}
	raw, err := json.Marshal(f)
	if err != nil { // impossible: fixed field types
		raw = []byte(`{"end":true}`)
	}
	return raw
}

// next returns the result records from index from onward, whether the job
// is finished, and — when it is not — a channel that is closed on the
// next append or state change. The channel is captured under the same
// lock as the batch, so no update can be missed.
func (j *Job) next(from int) (batch []json.RawMessage, terminal bool, wake <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.results) {
		batch = j.results[from:]
	}
	return batch, j.state.Terminal(), j.wake
}

// JobStatus is the wire form of GET /v1/jobs/{id}.
type JobStatus struct {
	ID      string `json:"id"`
	Miner   string `json:"miner"`
	Dataset string `json:"dataset"`
	// Tenant is the principal the job was admitted for ("anonymous" on
	// open deployments).
	Tenant string `json:"tenant"`
	State  State  `json:"state"`
	// QueueMS is the time the job spent (or, while still queued, has so
	// far spent) waiting for a worker; RunMS is its execution time so far
	// or final. Both are reported separately so a slow queue is never
	// mistaken for a slow run.
	QueueMS int64 `json:"queue_ms"`
	RunMS   int64 `json:"run_ms"`
	// Emitted is the number of result records available so far; it grows
	// while the job runs.
	Emitted int    `json:"emitted"`
	Error   string `json:"error,omitempty"`
	// Cached reports that the job replayed a cached result of an identical
	// earlier request instead of mining. Its stats are the original run's.
	Cached bool `json:"cached,omitempty"`
	// Partial, Gap, NodesExpanded and StopReason mirror the NDJSON end
	// frame: set for budgeted anytime runs that hit their budget and for
	// runs interrupted by a deadline or cancellation.
	Partial       bool     `json:"partial,omitempty"`
	Gap           *float64 `json:"gap,omitempty"`
	NodesExpanded int64    `json:"nodes_expanded,omitempty"`
	StopReason    string   `json:"stop_reason,omitempty"`
	// Stats is present once the job is terminal; for cancelled jobs it
	// holds the partial statistics up to the cancellation point.
	Stats      *engine.Stats `json:"stats,omitempty"`
	CreatedAt  string        `json:"created_at"`
	StartedAt  string        `json:"started_at,omitempty"`
	FinishedAt string        `json:"finished_at,omitempty"`
}

// Status snapshots the job for the status endpoint.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		Miner:     j.Spec.Miner,
		Dataset:   j.Spec.Dataset,
		Tenant:    tenantName(j.tenant),
		State:     j.state,
		Emitted:   j.emitted,
		Error:     j.errMsg,
		Cached:    j.cached,
		CreatedAt: j.createdAt.Format(time.RFC3339Nano),
	}
	switch {
	case !j.startedAt.IsZero():
		st.QueueMS = j.startedAt.Sub(j.createdAt).Milliseconds()
	case !j.endedAt.IsZero(): // cancelled while queued: never ran
		st.QueueMS = j.endedAt.Sub(j.createdAt).Milliseconds()
	default: // still waiting
		st.QueueMS = time.Since(j.createdAt).Milliseconds()
	}
	if !j.startedAt.IsZero() {
		if !j.endedAt.IsZero() {
			st.RunMS = j.endedAt.Sub(j.startedAt).Milliseconds()
		} else {
			st.RunMS = time.Since(j.startedAt).Milliseconds()
		}
	}
	if j.hasStats {
		stats := j.stats
		st.Stats = &stats
	}
	st.Partial = j.partial
	st.NodesExpanded = j.nodes
	st.StopReason = j.stopReason
	if j.hasGap && j.partial {
		gap := j.gap
		st.Gap = &gap
	}
	if !j.startedAt.IsZero() {
		st.StartedAt = j.startedAt.Format(time.RFC3339Nano)
	}
	if !j.endedAt.IsZero() {
		st.FinishedAt = j.endedAt.Format(time.RFC3339Nano)
	}
	return st
}

// Done exposes the terminal-state channel (closed when the job finishes).
func (j *Job) Done() <-chan struct{} { return j.done }
