package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/workload"
)

// Options tunes the coordinator's dispatch behavior; the zero value selects
// the defaults.
type Options struct {
	// ItemTimeout bounds one dispatch attempt (request + worker sweep);
	// <= 0 selects 10 minutes.
	ItemTimeout time.Duration
	// HeartbeatTTL is how long a silent worker stays live; <= 0 selects 15s.
	HeartbeatTTL time.Duration
	// MaxAttempts caps application-level attempts per work item (transport
	// failures mark the worker dead and reassign without burning an
	// attempt); <= 0 selects 3.
	MaxAttempts int
	// RetryDelay is the linear backoff unit between application-level
	// retries of one item (attempt n waits n*RetryDelay); <= 0 selects
	// 250ms.
	RetryDelay time.Duration
	// Client issues the dispatch requests; nil selects a fresh http.Client
	// (per-attempt deadlines come from ItemTimeout, not the client).
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.ItemTimeout <= 0 {
		o.ItemTimeout = 10 * time.Minute
	}
	if o.HeartbeatTTL <= 0 {
		o.HeartbeatTTL = 15 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetryDelay <= 0 {
		o.RetryDelay = 250 * time.Millisecond
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

// Coordinator owns the worker registry and the job queue. Safe for
// concurrent use; Close stops the heartbeat reaper.
type Coordinator struct {
	opts Options

	mu      sync.Mutex
	workers map[string]*workerState
	jobs    map[string]*job
	nextJob int
	pending []*workItem
	closed  bool

	reapStop  chan struct{}
	closeOnce sync.Once
}

type workerState struct {
	addr     string
	lastBeat time.Time
	dead     bool
	busy     *workItem
}

type job struct {
	id      string
	kind    string
	items   []*workItem
	done    int
	retries int
	state   string
	err     string
	result  json.RawMessage
	doneCh  chan struct{}
}

type workItem struct {
	job      *job
	idx      int
	shard    ShardRequest // sweep items
	query    []byte       // tune items (the encoded session.Query)
	attempts int
	report   *harness.Report // completed sweep item
	raw      json.RawMessage // completed tune item
	finished bool
}

// NewCoordinator builds a coordinator and starts its heartbeat reaper.
func NewCoordinator(opts Options) *Coordinator {
	c := &Coordinator{
		opts:     opts.withDefaults(),
		workers:  map[string]*workerState{},
		jobs:     map[string]*job{},
		reapStop: make(chan struct{}),
	}
	go c.reapLoop()
	return c
}

// Close stops the heartbeat reaper. In-flight dispatches finish on their
// own deadlines.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.reapStop)
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
	})
}

// Register adds (or revives) a worker at addr and counts as a heartbeat.
func (c *Coordinator) Register(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[addr]
	if w == nil {
		w = &workerState{addr: addr}
		c.workers[addr] = w
	}
	w.dead = false
	w.lastBeat = time.Now()
	c.pump()
}

// Heartbeat refreshes a worker's liveness; unknown workers are re-added
// (a coordinator restart must not orphan a running fleet).
func (c *Coordinator) Heartbeat(addr string) {
	c.Register(addr)
}

// Enqueue accepts a job and returns its ID. Sweep jobs decompose into
// shard work items immediately; the shard count defaults to the live
// worker count and is clamped to the corpus size so no item is empty.
func (c *Coordinator) Enqueue(req EnqueueRequest) (string, error) {
	switch req.Kind {
	case KindSweep:
		if req.Sweep == nil {
			return "", fmt.Errorf("fleet: sweep job needs a sweep spec")
		}
	case KindTune:
		if req.Tune == nil {
			return "", fmt.Errorf("fleet: tune job needs a tune query")
		}
	default:
		return "", fmt.Errorf("fleet: unknown job kind %q (want %q or %q)", req.Kind, KindSweep, KindTune)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextJob++
	j := &job{id: fmt.Sprintf("job-%d", c.nextJob), kind: req.Kind, state: StateQueued, doneCh: make(chan struct{})}
	switch req.Kind {
	case KindSweep:
		spec := *req.Sweep
		shards := spec.Shards
		if shards <= 0 {
			shards = c.liveWorkersLocked()
		}
		if shards < 1 {
			shards = 1
		}
		// No shard work item is ever empty: clamp to the corpus size.
		if _, size, _, _ := workload.SelectCorpus(workload.GenOptions{Seed: spec.Seed, Limit: spec.Limit}, ""); shards > size {
			shards = size
		}
		for i := 0; i < shards; i++ {
			it := &workItem{job: j, idx: i, shard: ShardRequest{Sweep: spec, Shard: fmt.Sprintf("%d/%d", i, shards)}}
			j.items = append(j.items, it)
			c.pending = append(c.pending, it)
		}
	case KindTune:
		body, err := json.Marshal(req.Tune)
		if err != nil {
			return "", fmt.Errorf("fleet: encode tune query: %w", err)
		}
		it := &workItem{job: j, query: body}
		j.items = append(j.items, it)
		c.pending = append(c.pending, it)
	}
	c.jobs[j.id] = j
	c.pump()
	return j.id, nil
}

// JobStatus is the GET /job view of one job; Result carries the merged
// artifact (sweep) or the tuning result (tune) once the job is done.
type JobStatus struct {
	ID      string          `json:"id"`
	Kind    string          `json:"kind"`
	State   string          `json:"state"`
	Items   int             `json:"items"`
	Done    int             `json:"done"`
	Retries int             `json:"retries"`
	Error   string          `json:"error,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
}

// Job snapshots one job's status ("" result until done).
func (c *Coordinator) Job(id string) (JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return c.statusLocked(j), true
}

func (c *Coordinator) statusLocked(j *job) JobStatus {
	return JobStatus{
		ID: j.id, Kind: j.kind, State: j.state,
		Items: len(j.items), Done: j.done, Retries: j.retries,
		Error: j.err, Result: j.result,
	}
}

// WorkerStatus is the GET /status view of one worker.
type WorkerStatus struct {
	Addr  string `json:"addr"`
	State string `json:"state"` // idle | busy | dead
}

// Status is the GET /status payload.
type Status struct {
	Workers []WorkerStatus `json:"workers"`
	Jobs    []JobStatus    `json:"jobs"`
}

// Status snapshots the registry and every job, in stable order.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	var st Status
	for _, addr := range c.sortedWorkersLocked() {
		w := c.workers[addr]
		state := "idle"
		switch {
		case w.dead:
			state = "dead"
		case w.busy != nil:
			state = "busy"
		}
		st.Workers = append(st.Workers, WorkerStatus{Addr: addr, State: state})
	}
	ids := make([]string, 0, len(c.jobs))
	for id := range c.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st.Jobs = append(st.Jobs, c.statusLocked(c.jobs[id]))
	}
	return st
}

func (c *Coordinator) liveWorkersLocked() int {
	n := 0
	for _, w := range c.workers {
		if !w.dead {
			n++
		}
	}
	return n
}

func (c *Coordinator) sortedWorkersLocked() []string {
	addrs := make([]string, 0, len(c.workers))
	for a := range c.workers {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	return addrs
}

// pump assigns pending work items to idle live workers. Callers hold c.mu.
// Workers are tried in address order so dispatch is deterministic given a
// registry state; the artifact does not depend on it either way (Merge
// re-sorts into corpus order).
func (c *Coordinator) pump() {
	if c.closed {
		return
	}
	for len(c.pending) > 0 {
		var w *workerState
		for _, addr := range c.sortedWorkersLocked() {
			cand := c.workers[addr]
			if !cand.dead && cand.busy == nil {
				w = cand
				break
			}
		}
		if w == nil {
			return // every live worker busy; itemDone/Register re-pump
		}
		it := c.pending[0]
		c.pending = c.pending[1:]
		if it.job.state == StateFailed || it.finished {
			continue
		}
		if it.job.state == StateQueued {
			it.job.state = StateRunning
		}
		w.busy = it
		go c.dispatch(w, it)
	}
}

// dispatch runs one work item on one worker and routes the outcome:
// transport failure → the worker is dead, the item is reassigned (no
// attempt burned); application failure → linear backoff, MaxAttempts
// attempts, 4xx is terminal (retrying a rejected request cannot succeed);
// success → the item's result is recorded and the job completed when it
// was the last.
func (c *Coordinator) dispatch(w *workerState, it *workItem) {
	path, body := "/run", []byte(nil)
	if it.job.kind == KindTune {
		path = "/tune"
		body = it.query
	} else {
		body, _ = json.Marshal(it.shard)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.ItemTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.addr+path, bytes.NewReader(body))
	if err != nil {
		c.itemTransportFailed(w, it, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		c.itemTransportFailed(w, it, err)
		return
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		c.itemTransportFailed(w, it, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		terminal := resp.StatusCode >= 400 && resp.StatusCode < 500
		c.itemAppFailed(w, it, fmt.Errorf("worker %s: %s: %s", w.addr, resp.Status, strings.TrimSpace(string(payload))), terminal)
		return
	}
	if it.job.kind == KindSweep {
		var rep harness.Report
		if err := json.Unmarshal(payload, &rep); err != nil {
			c.itemAppFailed(w, it, fmt.Errorf("worker %s: bad shard artifact: %v", w.addr, err), false)
			return
		}
		c.itemDone(w, it, &rep, nil)
		return
	}
	c.itemDone(w, it, nil, payload)
}

// itemTransportFailed marks the worker dead and reassigns the item. A
// worker that cannot be reached (or that died mid-sweep) burns no attempt:
// the item was never refused, just stranded.
func (c *Coordinator) itemTransportFailed(w *workerState, it *workItem, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.dead = true
	w.busy = nil
	if it.job.state == StateFailed || it.finished {
		return
	}
	it.job.retries++
	c.pending = append(c.pending, it)
	c.pump()
	_ = err // the retry, not the transcript, is the remedy; /status shows the dead worker
}

// itemAppFailed counts an application-level refusal against the item's
// attempt budget and schedules a linear-backoff retry; terminal failures
// (4xx) and exhausted budgets fail the whole job.
func (c *Coordinator) itemAppFailed(w *workerState, it *workItem, err error, terminal bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.busy = nil
	if it.job.state == StateFailed || it.finished {
		c.pump()
		return
	}
	it.attempts++
	if terminal || it.attempts >= c.opts.MaxAttempts {
		c.failJobLocked(it.job, err)
		c.pump()
		return
	}
	it.job.retries++
	delay := time.Duration(it.attempts) * c.opts.RetryDelay
	time.AfterFunc(delay, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if it.job.state == StateFailed || it.finished || c.closed {
			return
		}
		c.pending = append(c.pending, it)
		c.pump()
	})
	c.pump()
}

func (c *Coordinator) failJobLocked(j *job, err error) {
	if j.state == StateFailed || j.state == StateDone {
		return
	}
	j.state = StateFailed
	j.err = err.Error()
	close(j.doneCh)
}

// itemDone records one finished item and, when it was the job's last,
// completes the job — merging sweep shards in item order (harness.Merge
// then re-sorts outcomes into corpus order, so the merged artifact is
// deterministic no matter which worker finished when).
func (c *Coordinator) itemDone(w *workerState, it *workItem, rep *harness.Report, raw json.RawMessage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.busy = nil
	if it.job.state == StateFailed || it.finished {
		c.pump()
		return
	}
	it.finished = true
	it.report = rep
	it.raw = raw
	j := it.job
	j.done++
	if j.done == len(j.items) {
		c.completeJobLocked(j)
	}
	c.pump()
}

func (c *Coordinator) completeJobLocked(j *job) {
	if j.kind == KindTune {
		j.result = j.items[0].raw
		j.state = StateDone
		close(j.doneCh)
		return
	}
	var merged *harness.Report
	var err error
	if len(j.items) == 1 {
		merged = j.items[0].report
	} else {
		reports := make([]*harness.Report, len(j.items))
		for i, it := range j.items {
			reports[i] = it.report
		}
		merged, err = harness.Merge(reports)
	}
	if err != nil {
		c.failJobLocked(j, fmt.Errorf("merge shards: %w", err))
		return
	}
	out, err := json.Marshal(merged)
	if err != nil {
		c.failJobLocked(j, fmt.Errorf("encode merged artifact: %w", err))
		return
	}
	j.result = out
	j.state = StateDone
	close(j.doneCh)
}

// reapLoop expires workers whose last heartbeat is older than the TTL and
// reassigns whatever they were running.
func (c *Coordinator) reapLoop() {
	interval := c.opts.withDefaults().HeartbeatTTL / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.reapStop:
			return
		case <-t.C:
			c.reap()
		}
	}
}

func (c *Coordinator) reap() {
	c.mu.Lock()
	defer c.mu.Unlock()
	cutoff := time.Now().Add(-c.opts.HeartbeatTTL)
	for _, w := range c.workers {
		if w.dead || !w.lastBeat.Before(cutoff) {
			continue
		}
		w.dead = true
		if it := w.busy; it != nil {
			w.busy = nil
			// The dispatch goroutine may still deliver late; itemDone's
			// finished check makes the first outcome win.
			if it.job.state != StateFailed && !it.finished {
				it.job.retries++
				c.pending = append(c.pending, it)
			}
		}
	}
	c.pump()
}

// Mux wires the coordinator's HTTP surface: POST /enqueue, GET /job?id=,
// GET /status, POST /register, POST /heartbeat, GET /healthz.
func (c *Coordinator) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/enqueue", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST a job to /enqueue"))
			return
		}
		var req EnqueueRequest
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad job: %w", err))
			return
		}
		id, err := c.Enqueue(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, map[string]string{"id": id})
	})
	mux.HandleFunc("/job", func(w http.ResponseWriter, r *http.Request) {
		st, ok := c.Job(r.URL.Query().Get("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.URL.Query().Get("id")))
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Status())
	})
	mux.HandleFunc("/register", c.beatHandler(c.Register))
	mux.HandleFunc("/heartbeat", c.beatHandler(c.Heartbeat))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (c *Coordinator) beatHandler(fn func(addr string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST a worker address"))
			return
		}
		var body struct {
			Addr string `json:"addr"`
		}
		r.Body = http.MaxBytesReader(w, r.Body, 1<<16)
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.Addr == "" {
			writeError(w, http.StatusBadRequest, fmt.Errorf("body must be {\"addr\": \"http://host:port\"}"))
			return
		}
		fn(strings.TrimRight(body.Addr, "/"))
		writeJSON(w, map[string]string{"status": "ok"})
	}
}

// maxBodyBytes caps a coordinator or worker request body (16 MiB — three
// orders of magnitude above any real payload).
const maxBodyBytes = 16 << 20

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
