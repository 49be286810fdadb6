package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/plan"
	"repro/internal/session"
	"repro/internal/workload"
)

// Worker is the worker-side HTTP surface: a thin loop around harness.Run
// (POST /run, one shard sweep per request) and session.Plan (POST /tune)
// over one session. The session's DiskStore and verify ledger live in the
// fleet's shared cache directory, so variants and verdicts flow between
// workers through the filesystem, not the coordinator.
//
// Requests are serialized: harness.Run derives its cache-economics counters
// from store-stat deltas around the sweep, so two interleaved sweeps on one
// session would misattribute compiles. Serializing trades worker-local
// parallelism (each sweep already fans out across GOMAXPROCS scenario
// workers) for honest counters.
type Worker struct {
	sess *session.Session
	mu   sync.Mutex
}

// NewWorker wraps a session as a fleet worker.
func NewWorker(sess *session.Session) *Worker {
	return &Worker{sess: sess}
}

// Session returns the worker's session (the smoke tests read its stats).
func (w *Worker) Session() *session.Session { return w.sess }

// Mux wires the worker's HTTP surface: POST /run, POST /tune, GET /healthz.
func (w *Worker) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			rw.Header().Set("Allow", http.MethodPost)
			writeError(rw, http.StatusMethodNotAllowed, fmt.Errorf("POST a shard request to /run"))
			return
		}
		var req ShardRequest
		r.Body = http.MaxBytesReader(rw, r.Body, maxBodyBytes)
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(rw, http.StatusBadRequest, fmt.Errorf("bad shard request: %w", err))
			return
		}
		w.mu.Lock()
		rep, err := RunShard(w.sess, req)
		w.mu.Unlock()
		if err != nil {
			// A malformed shard spec or unknown machine is the
			// coordinator's fault and permanent; everything else might be
			// transient.
			status := http.StatusInternalServerError
			if errors.Is(err, workload.ErrBadShard) || errors.Is(err, plan.ErrUnknownMachine) {
				status = http.StatusBadRequest
			}
			writeError(rw, status, err)
			return
		}
		writeJSON(rw, rep)
	})
	mux.HandleFunc("/tune", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			rw.Header().Set("Allow", http.MethodPost)
			writeError(rw, http.StatusMethodNotAllowed, fmt.Errorf("POST a tuning query to /tune"))
			return
		}
		var q session.Query
		r.Body = http.MaxBytesReader(rw, r.Body, maxBodyBytes)
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&q); err != nil {
			writeError(rw, http.StatusBadRequest, fmt.Errorf("bad tuning query: %w", err))
			return
		}
		w.mu.Lock()
		res, err := w.sess.Plan(q)
		w.mu.Unlock()
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, session.ErrQuery) {
				status = http.StatusBadRequest
			}
			writeError(rw, status, err)
			return
		}
		writeJSON(rw, res)
	})
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(rw, "ok")
	})
	return mux
}

// Announce registers a worker with the coordinator and keeps its heartbeat
// fresh until the context is canceled. Registration retries on the same
// interval, so workers and coordinator may start in any order; a
// coordinator restart is healed the same way (Register is an upsert).
func Announce(ctx context.Context, client *http.Client, coord, self string, interval time.Duration) {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	if interval <= 0 {
		interval = 3 * time.Second
	}
	beat := func(path string) error {
		body, _ := json.Marshal(map[string]string{"addr": self})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, coord+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s", path, resp.Status)
		}
		return nil
	}
	registered := beat("/register") == nil
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if !registered {
				registered = beat("/register") == nil
				continue
			}
			if err := beat("/heartbeat"); err != nil {
				registered = false
			}
		}
	}
}
