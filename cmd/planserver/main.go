// Command planserver exposes the tuner as a resident service: one
// long-lived session (variant store + plan memo + execution engine) answers
// plan queries over HTTP, so the expensive parts of a query — compiling
// measured variants and searching plan space — are paid once per program
// shape and amortized across every client.
//
// Usage:
//
//	planserver [-addr :8714] [-engine bytecode|walk] [-cache-dir DIR]
//	           [-drain 30s]
//
// The server drains gracefully: SIGTERM/SIGINT stop the listener and
// in-flight /plan tuning jobs get -drain to finish, so the memo and stats
// are consistent at exit.
//
// Endpoints:
//
//	POST /plan    — body: a JSON query {source, machine, np, fixed_k?,
//	                max_measured?, arrays?}; response: the tuning
//	                result {fingerprint, memo_hit, choice, verify} where
//	                choice.plan is the replayable overlap plan and verify
//	                is the static-verification verdict on the chosen
//	                plan's variant ({checked, clean, findings?}). The
//	                first query for a (program shape, machine, search
//	                params) tuple runs the seeded measured search; repeats
//	                are served from the session's plan memo (keyed on the
//	                analysis fingerprint, the machine model and the search
//	                params) with memo_hit=true and no new search or
//	                compiles. Clean
//	                verify verdicts land in the session store's ledger, so
//	                repeats (and, with -cache-dir, restarts) skip
//	                re-verification.
//	GET  /stats   — the session's store, memo and replayed-run counters as JSON.
//	GET  /healthz — liveness probe; always "ok".
//
// A rejected query (no source, np < 1, unknown machine, malformed JSON)
// gets 400 with {"error": ...}; a body over the 16 MiB cap gets a JSON 413;
// a search failure gets 500 the same way.
// -cache-dir backs the session's variant store with the content-addressed
// on-disk layer shared with evalrunner, so a restarted server starts warm
// on every variant it ever compiled.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/exec"
	"repro/internal/session"
)

func main() {
	addr := flag.String("addr", ":8714", "listen address")
	engineName := flag.String("engine", "", "execution engine for measured runs: bytecode (default) or walk")
	cacheDir := flag.String("cache-dir", "", "persist compiled variants content-addressed under this directory ('' = in-memory only)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for in-flight queries")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "planserver: unexpected arguments:", flag.Args())
		os.Exit(2)
	}

	engine, err := exec.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "planserver:", err)
		os.Exit(2)
	}
	var store exec.VariantStore
	if *cacheDir != "" {
		if engine == exec.EngineWalk {
			fmt.Fprintln(os.Stderr, "planserver: -cache-dir persists compiled variants; the walk engine compiles nothing")
			os.Exit(2)
		}
		store, err = exec.NewDiskStore(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "planserver: -cache-dir:", err)
			os.Exit(1)
		}
	}
	sess, err := session.New(session.Options{Engine: engine, Store: store})
	if err != nil {
		fmt.Fprintln(os.Stderr, "planserver:", err)
		os.Exit(1)
	}

	srv := &http.Server{Addr: *addr, Handler: newMux(sess), ReadHeaderTimeout: 10 * time.Second, ReadTimeout: readTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("planserver: engine %s, listening on %s", engine, *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("planserver: %v", err)
		}
	case sig := <-sigCh:
		// Draining instead of dying keeps the memo and stats consistent:
		// an in-flight /plan finishes its search (and its memo store)
		// before the process exits.
		log.Printf("planserver: %v — draining for up to %s", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("planserver: drain deadline exceeded: %v", err)
		}
	}
}

// readTimeout bounds reading one whole request, body included. At the
// 16 MiB body cap it still admits a client sending 0.8 MB/s; a real query is
// a few kilobytes and arrives in milliseconds. Without it a client that
// announces a body and stops sending holds a handler goroutine forever:
// ReadHeaderTimeout stops covering the request once its headers are in.
const readTimeout = 20 * time.Second

// newMux wires the session into the HTTP surface. Split from main so the
// smoke test can mount the identical handler on an ephemeral listener.
func newMux(s *session.Session) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/plan", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST a plan query to /plan"))
			return
		}
		var q session.Query
		// A capped body keeps an accidental multi-gigabyte upload from
		// parking in memory; real queries are a few kilobytes of Fortran.
		// MaxBytesReader (unlike a bare LimitReader) closes the connection
		// and lets the cap be told apart from ordinary JSON garbage.
		r.Body = http.MaxBytesReader(w, r.Body, maxQueryBytes)
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&q); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("query body exceeds %d bytes", tooBig.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad query: %w", err))
			return
		}
		if strings.TrimSpace(q.Source) == "" {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query needs a non-empty program source"))
			return
		}
		res, err := s.Plan(q)
		if err != nil {
			// The session rejects malformed queries before any analysis or
			// search runs; those are the client's fault, the rest ours.
			status := http.StatusInternalServerError
			if errors.Is(err, session.ErrQuery) {
				status = http.StatusBadRequest
			}
			writeError(w, status, err)
			return
		}
		writeJSON(w, planResponse{Result: res, Verify: verifyChoice(s, q, res)})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET /stats"))
			return
		}
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// maxQueryBytes caps a /plan request body (16 MiB — three orders of
// magnitude above any real query, small enough to be harmless to hold).
const maxQueryBytes = 16 << 20

// verifyStatus is the static-verification verdict a /plan response carries:
// the chosen plan's variant re-proven by the translation validator and the
// MPI schedule linter, without executing anything.
type verifyStatus struct {
	// Checked reports whether the static tier ran (it is skipped only when
	// the variant could not be regenerated).
	Checked bool `json:"checked"`
	// Clean reports a finding-free verdict.
	Clean bool `json:"clean"`
	// Findings are the rendered diagnostics of a dirty verdict.
	Findings []string `json:"findings,omitempty"`
}

// planResponse is the /plan payload: the session's tuning result plus the
// static verdict on the chosen plan.
type planResponse struct {
	*session.Result
	Verify verifyStatus `json:"verify"`
}

// verifyChoice shapes session.Verify's verdict on the chosen plan's variant
// for the response.
func verifyChoice(s *session.Session, q session.Query, res *session.Result) verifyStatus {
	if res.Choice.Plan == nil {
		return verifyStatus{}
	}
	prog, err := s.Analyze(q.Source, int64(q.NP))
	if err != nil {
		return verifyStatus{}
	}
	v, err := s.Verify(prog, res.Choice.Plan)
	if err != nil {
		return verifyStatus{Checked: true, Findings: []string{"apply: " + err.Error()}}
	}
	st := verifyStatus{Checked: true, Clean: len(v.Diags) == 0}
	for _, d := range v.Diags {
		st.Findings = append(st.Findings, d.String())
	}
	return st
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("planserver: write response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
