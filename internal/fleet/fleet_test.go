package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/session"
	"repro/internal/workload"
)

// startFleet serves a worker over sess and a coordinator with that worker
// registered, and returns a client of the coordinator.
func startFleet(t *testing.T, sess *session.Session) *Client {
	t.Helper()
	worker := httptest.NewServer(NewWorker(sess).Mux())
	t.Cleanup(worker.Close)
	coord := NewCoordinator(Options{})
	t.Cleanup(coord.Close)
	coord.Register(worker.URL)
	front := httptest.NewServer(coord.Mux())
	t.Cleanup(front.Close)
	return &Client{Base: front.URL, Poll: 5 * time.Millisecond}
}

func newSession(t *testing.T) *session.Session {
	t.Helper()
	sess, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestFleetTuneJob: a cold tune job forwarded through the coordinator
// returns the plan and fingerprint a local search finds, the search ran on
// the worker, and the repeat is a memo hit there.
func TestFleetTuneJob(t *testing.T) {
	workerSess := newSession(t)
	client := startFleet(t, workerSess)

	q := session.Query{
		Source:  workload.DirectSource(workload.DirectParams{NX: 4096, NP: 4}),
		Machine: "mpich-gm-2005",
		NP:      4,
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := client.RunTune(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoHit {
		t.Error("cold fleet tune reported a memo hit")
	}
	if res.Choice.Plan == nil || len(res.Choice.Plan.Sites) == 0 {
		t.Fatal("fleet tune returned no plan")
	}
	compiled := workerSess.Stats().Store.Compiled
	if compiled == 0 {
		t.Error("worker compiled nothing — the search did not run there")
	}

	local, err := newSession(t).Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Choice.Plan.Key() != local.Choice.Plan.Key() {
		t.Errorf("fleet plan %s differs from local plan %s", res.Choice.Plan.Key(), local.Choice.Plan.Key())
	}
	if res.Fingerprint != local.Fingerprint {
		t.Errorf("fleet fingerprint %q differs from local %q", res.Fingerprint, local.Fingerprint)
	}

	again, err := client.RunTune(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !again.MemoHit || again.Choice.Plan.Key() != res.Choice.Plan.Key() {
		t.Errorf("repeat fleet tune: memo hit %v, plan %s; want a memo hit on %s",
			again.MemoHit, again.Choice.Plan.Key(), res.Choice.Plan.Key())
	}
	if got := workerSess.Stats().Store.Compiled; got != compiled {
		t.Errorf("repeat fleet tune compiled %d new variants, want 0", got-compiled)
	}
}

// TestWorkerRejectsBadRequests: a /tune body that can never succeed — an
// unknown field (the retired k_only among them), an unknown machine — is
// the sender's fault and a 400; so is a malformed /enqueue body at the
// coordinator.
func TestWorkerRejectsBadRequests(t *testing.T) {
	worker := httptest.NewServer(NewWorker(newSession(t)).Mux())
	defer worker.Close()
	coord := NewCoordinator(Options{})
	defer coord.Close()
	front := httptest.NewServer(coord.Mux())
	defer front.Close()
	for _, c := range []struct{ url, body string }{
		{worker.URL + "/tune", `{"source": "x", "np": 4, "machine": "mpich-gm-2005", "k_only": true}`},
		{worker.URL + "/tune", `{"source": "x", "np": 4, "machine": "mpich-gm"}`},
		{worker.URL + "/tune", `{not json`},
		{front.URL + "/enqueue", `{"kind": "sweep"}`},
	} {
		resp, err := http.Post(c.url, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400", c.url, c.body, resp.StatusCode)
		}
	}
}

// TestDispatchFailureFailsJob: a query the worker refuses fails the job
// with the worker's status and message, and a coordinator with no worker
// refuses to enqueue.
func TestDispatchFailureFailsJob(t *testing.T) {
	client := startFleet(t, newSession(t))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err := client.RunTune(ctx, session.Query{Source: "x", Machine: "mpich-gm", NP: 4})
	if err == nil || !strings.Contains(err.Error(), "400 Bad Request") || !strings.Contains(err.Error(), "mpich-gm") {
		t.Errorf("refused query: err = %v, want the worker's 400 and its message", err)
	}

	coord := NewCoordinator(Options{})
	defer coord.Close()
	front := httptest.NewServer(coord.Mux())
	defer front.Close()
	empty := &Client{Base: front.URL, Poll: 5 * time.Millisecond}
	if _, err := empty.RunTune(ctx, session.Query{Source: "x", Machine: "mpich-gm-2005", NP: 4}); err == nil ||
		!strings.Contains(err.Error(), "no worker") {
		t.Errorf("no worker registered: err = %v, want a no-worker refusal", err)
	}
}
