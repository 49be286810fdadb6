// Package fleet forwards one plan-tuning query over one HTTP hop: a Client
// enqueues the query with a Coordinator, the coordinator posts it to a
// registered Worker, the worker answers it with session.Plan, and the client
// polls the coordinator until the result is in.
//
// The package exists only for benchmark/'s fleet.dispatch_overhead_ms_p50
// probe, which prices that hop against the same query answered inline.
// Nothing else in the repository dispatches work to another process: a sweep
// splits across processes with evalrunner's -shard and -merge. The package
// is deleted together with the probe in the change that next edits
// benchmark/ (ROADMAP item F).
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/session"
)

// Options configures a coordinator. It has no fields; it stays so the
// probe's NewCoordinator call compiles unchanged.
type Options struct{}

// Worker answers forwarded tuning queries with session.Plan over one
// session. session.Plan is safe for concurrent use, so requests are not
// serialised.
type Worker struct {
	sess *session.Session
}

// NewWorker wraps a session as a worker.
func NewWorker(sess *session.Session) *Worker {
	return &Worker{sess: sess}
}

// Mux wires the worker's HTTP surface: POST /tune takes a session.Query and
// answers its session.Result. A malformed or invalid query is a 400, a
// failed search a 500.
func (w *Worker) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/tune", func(rw http.ResponseWriter, r *http.Request) {
		if !requirePost(rw, r) {
			return
		}
		var q session.Query
		if err := decodeBody(rw, r, &q); err != nil {
			writeError(rw, http.StatusBadRequest, fmt.Errorf("bad tuning query: %w", err))
			return
		}
		res, err := w.sess.Plan(q)
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
	return mux
}

// maxBodyBytes caps a coordinator or worker request body (16 MiB — three
// orders of magnitude above any real query).
const maxBodyBytes = 16 << 20

// decodeBody decodes a capped JSON request body, rejecting unknown fields.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// call issues one request and returns the body of a 200 answer; any other
// status is an error carrying the status and the server's message.
func call(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(payload))
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(payload, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return nil, fmt.Errorf("%s: %s", resp.Status, msg)
	}
	return payload, nil
}

// requirePost answers a non-POST request with 405 and reports whether the
// handler may go on.
func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodPost {
		return true
	}
	w.Header().Set("Allow", http.MethodPost)
	writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST %s", r.URL.Path))
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
