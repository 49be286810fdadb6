package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/session"
)

// dispatchTimeout bounds one forwarded query: a cold search of the largest
// corpus program takes seconds, so a worker silent for ten minutes is hung.
const dispatchTimeout = 10 * time.Minute

// Job states, in lifecycle order.
const (
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// job is one forwarded query and, as JSON, the GET /job answer.
type job struct {
	State  string          `json:"state"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Coordinator forwards each enqueued query to the next registered worker in
// turn and holds the outcome until a client collects it. Safe for concurrent
// use.
type Coordinator struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // in-flight dispatches

	mu      sync.Mutex
	workers []string
	next    int // round-robin cursor into workers
	jobs    map[string]*job
	nextJob int
}

// NewCoordinator builds a coordinator with no workers.
func NewCoordinator(Options) *Coordinator {
	ctx, cancel := context.WithCancel(context.Background())
	return &Coordinator{ctx: ctx, cancel: cancel, jobs: map[string]*job{}}
}

// Close cancels every forwarded query still in flight, failing its job,
// refuses new ones, and returns once the dispatches have exited.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.cancel() // under mu, so no enqueue adds to wg after Wait starts
	c.mu.Unlock()
	c.wg.Wait()
}

// Register adds the worker at base URL addr to the rotation.
func (c *Coordinator) Register(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers = append(c.workers, addr)
}

// enqueue starts forwarding one encoded query and returns its job ID.
func (c *Coordinator) enqueue(query []byte) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctx.Err() != nil {
		return "", errors.New("fleet: coordinator closed")
	}
	if len(c.workers) == 0 {
		return "", errors.New("fleet: no worker registered")
	}
	addr := c.workers[c.next%len(c.workers)]
	c.next++
	c.nextJob++
	id := fmt.Sprintf("job-%d", c.nextJob)
	j := &job{State: stateRunning}
	c.jobs[id] = j
	c.wg.Add(1)
	go c.dispatch(j, addr, query)
	return id, nil
}

// dispatch posts the query to the worker's /tune and records the outcome. A
// refusal fails the job with the worker's status and message.
func (c *Coordinator) dispatch(j *job, addr string, query []byte) {
	defer c.wg.Done()
	ctx, cancel := context.WithTimeout(c.ctx, dispatchTimeout)
	defer cancel()
	res, err := call(ctx, http.MethodPost, addr+"/tune", query)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		j.State, j.Error = stateFailed, fmt.Sprintf("worker %s: %v", addr, err)
		return
	}
	j.State, j.Result = stateDone, res
}

// Mux wires the coordinator's HTTP surface: POST /enqueue takes a
// session.Query and answers {"id": ...}; GET /job?id= answers the job's
// state, and once it is done or failed, its result or error. A finished job
// is forgotten once its outcome has been served.
func (c *Coordinator) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/enqueue", func(w http.ResponseWriter, r *http.Request) {
		if !requirePost(w, r) {
			return
		}
		var q session.Query
		if err := decodeBody(w, r, &q); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad tuning query: %w", err))
			return
		}
		body, _ := json.Marshal(q) // strings, ints and a string slice always encode
		id, err := c.enqueue(body)
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeJSON(w, map[string]string{"id": id})
	})
	mux.HandleFunc("/job", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		c.mu.Lock()
		j, ok := c.jobs[id]
		var st job
		if ok {
			st = *j
			if st.State != stateRunning {
				delete(c.jobs, id)
			}
		}
		c.mu.Unlock()
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
			return
		}
		writeJSON(w, st)
	})
	return mux
}
