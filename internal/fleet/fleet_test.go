package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/session"
	"repro/internal/workload"
)

// serve mounts a handler on an ephemeral listener and returns its base URL.
func serve(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String()
}

// startCoordinator builds a coordinator (closed on test cleanup) and serves
// its mux.
func startCoordinator(t *testing.T, opts Options) (*Coordinator, string) {
	t.Helper()
	c := NewCoordinator(opts)
	t.Cleanup(c.Close)
	return c, serve(t, c.Mux())
}

// startWorker builds a worker over a session whose DiskStore lives in
// cacheDir ("" = private in-memory store) and serves its mux.
func startWorker(t *testing.T, cacheDir string) (*Worker, string) {
	t.Helper()
	var store exec.VariantStore
	if cacheDir != "" {
		var err error
		store, err = exec.NewDiskStore(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
	}
	sess, err := session.New(session.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(sess)
	return w, serve(t, w.Mux())
}

// normalize strips the volatile counters — wall time and cache, verify and
// run-skeleton economics — that legitimately differ between a fleet sweep
// and a single-process sweep. Everything else must agree byte for byte.
func normalize(t *testing.T, rep *harness.Report) string {
	t.Helper()
	clone := *rep
	clone.Summary.ReplayedRuns, clone.Summary.CertifiedRuns = 0, 0
	clone.Scenarios = append([]harness.Outcome(nil), rep.Scenarios...)
	for i := range clone.Scenarios {
		tuned := append([]harness.TunedRun(nil), clone.Scenarios[i].Tuned...)
		for j := range tuned {
			tuned[j].ReplayedRuns, tuned[j].CertifiedRuns = 0, 0
		}
		clone.Scenarios[i].Tuned = tuned
	}
	clone.Summary.SweepWallNs = 0
	clone.Summary.VariantsCompiled = 0
	clone.Summary.CacheHits = 0
	clone.Summary.DiskHits = 0
	clone.Summary.VerifiedVariants = 0
	clone.Summary.VerifySkipped = 0
	clone.Summary.VerifyWallNs = 0
	b, err := json.Marshal(&clone)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// singleProcess sweeps the same truncated corpus in-process — the
// equivalence baseline every fleet artifact is held to.
func singleProcess(t *testing.T, spec SweepSpec) *harness.Report {
	t.Helper()
	sess, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunShard(sess, ShardRequest{Sweep: spec, Shard: "0/1"})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// testSpec is the truncated tuned+verified sweep the e2e tests dispatch:
// 5 scenarios over 2 shards, deliberately not divisible.
func testSpec() SweepSpec {
	return SweepSpec{Limit: 5, Tune: true, Verify: true, Shards: 2}
}

// TestFleetSweepMatchesSingleProcess is the tentpole equivalence contract:
// two workers sharing one on-disk variant store sweep the shards of a
// tuned, verified corpus, and the coordinator's merged artifact is
// byte-identical to a single-process sweep modulo the volatile counters.
func TestFleetSweepMatchesSingleProcess(t *testing.T) {
	dir := t.TempDir()
	_, coordURL := startCoordinator(t, Options{})
	_, w1 := startWorker(t, dir)
	_, w2 := startWorker(t, dir)
	client := &Client{Base: coordURL, Poll: 20 * time.Millisecond}
	for _, addr := range []string{w1, w2} {
		register(t, coordURL, addr)
	}

	spec := testSpec()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	fleetRep, err := client.RunSweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !fleetRep.Verify {
		t.Error("fleet artifact dropped the verify flag")
	}
	if fleetRep.Summary.VerifyFailures != 0 {
		t.Errorf("fleet sweep reported %d verify failures", fleetRep.Summary.VerifyFailures)
	}
	if got, want := fleetRep.Summary.Scenarios, spec.Limit; got != want {
		t.Fatalf("fleet artifact covers %d scenarios, want %d", got, want)
	}

	local := singleProcess(t, spec)
	if a, b := normalize(t, fleetRep), normalize(t, local); a != b {
		t.Errorf("fleet artifact differs from the single-process sweep:\n%s\nvs\n%s", a, b)
	}
}

// register announces a worker address to the coordinator over the wire (the
// same POST /register a fleetd worker sends).
func register(t *testing.T, coordURL, workerURL string) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"addr": workerURL})
	resp, err := http.Post(coordURL+"/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /register = %d, want 200", resp.StatusCode)
	}
}

// killingHandler wraps a worker mux and kills the TCP connection of the
// first /run request — a worker dying mid-shard, as seen from the
// coordinator: a transport error with no response.
type killingHandler struct {
	inner  http.Handler
	killed atomic.Bool
}

func (k *killingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/run" && !k.killed.Swap(true) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
		return
	}
	k.inner.ServeHTTP(w, r)
}

// TestFleetReassignsDeadWorkers: a worker that dies mid-shard and a worker
// that was never reachable both get their items reassigned to the
// surviving worker, and the final artifact is still complete and identical
// to the single-process sweep.
func TestFleetReassignsDeadWorkers(t *testing.T) {
	dir := t.TempDir()
	coord, coordURL := startCoordinator(t, Options{})
	_, healthy := startWorker(t, dir)
	killer, _ := startWorker(t, dir)
	killerURL := serve(t, &killingHandler{inner: killer.Mux()})

	// A dead address: reserve a port, then close it so dials are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	for _, addr := range []string{deadURL, killerURL, healthy} {
		register(t, coordURL, addr)
	}

	spec := testSpec()
	client := &Client{Base: coordURL, Poll: 20 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	fleetRep, err := client.RunSweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fleetRep.Summary.Scenarios, spec.Limit; got != want {
		t.Fatalf("artifact covers %d scenarios after reassignment, want %d", got, want)
	}
	local := singleProcess(t, spec)
	if a, b := normalize(t, fleetRep), normalize(t, local); a != b {
		t.Errorf("post-reassignment artifact differs from the single-process sweep:\n%s\nvs\n%s", a, b)
	}

	st := coord.Status()
	dead := map[string]bool{}
	for _, w := range st.Workers {
		if w.State == "dead" {
			dead[w.Addr] = true
		}
	}
	if !dead[deadURL] {
		t.Error("unreachable worker not marked dead")
	}
	if !dead[killerURL] {
		t.Error("mid-shard-killed worker not marked dead")
	}
	if len(st.Jobs) != 1 || st.Jobs[0].Retries == 0 {
		t.Errorf("job status %+v, want one job with retries > 0", st.Jobs)
	}
}

// TestFleetTuneJob: a tune job dispatched through the coordinator returns
// the same chosen plan a local session search finds.
func TestFleetTuneJob(t *testing.T) {
	_, coordURL := startCoordinator(t, Options{})
	worker, workerURL := startWorker(t, "")
	register(t, coordURL, workerURL)

	q := session.Query{
		Source:  workload.DirectSource(workload.DirectParams{NX: 4096, NP: 4}),
		Machine: "mpich-gm-2005",
		NP:      4,
	}
	client := &Client{Base: coordURL, Poll: 20 * time.Millisecond}
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
	if worker.Session().Stats().Store.Compiled == 0 {
		t.Error("worker compiled nothing — the search did not run there")
	}

	sess, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := sess.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Choice.Plan.Key() != local.Choice.Plan.Key() {
		t.Errorf("fleet plan %s differs from local plan %s", res.Choice.Plan.Key(), local.Choice.Plan.Key())
	}
	if res.Fingerprint != local.Fingerprint {
		t.Errorf("fleet fingerprint %q differs from local %q", res.Fingerprint, local.Fingerprint)
	}
}

// TestEnqueueValidationAndClamp: malformed jobs are rejected; the shard
// count is clamped to the corpus size so no work item is ever empty.
func TestEnqueueValidationAndClamp(t *testing.T) {
	c := NewCoordinator(Options{})
	defer c.Close()
	for _, req := range []EnqueueRequest{
		{Kind: "nonsense"},
		{Kind: KindSweep},
		{Kind: KindTune},
	} {
		if _, err := c.Enqueue(req); err == nil {
			t.Errorf("Enqueue(%+v) succeeded, want error", req)
		}
	}
	id, err := c.Enqueue(EnqueueRequest{Kind: KindSweep, Sweep: &SweepSpec{Limit: 3, Shards: 10}})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := c.Job(id)
	if !ok {
		t.Fatal("enqueued job not found")
	}
	if st.Items != 3 {
		t.Errorf("10 shards over a 3-scenario corpus produced %d items, want 3 (clamped)", st.Items)
	}
	if st.State != StateQueued {
		t.Errorf("job with no workers is %q, want %q", st.State, StateQueued)
	}
}

// TestWorkerRejectsBadRequests: a request that can never succeed — an
// unknown field (the retired k_only among them), a malformed shard spec, an
// unknown machine — is the sender's fault and a 400, so the coordinator
// does not retry it; the classification is by error type, not wording.
func TestWorkerRejectsBadRequests(t *testing.T) {
	_, base := startWorker(t, "")
	for _, c := range []struct{ path, body string }{
		{"/tune", `{"source": "x", "np": 4, "machine": "mpich-gm-2005", "k_only": true}`},
		{"/tune", `{"source": "x", "np": 4, "machine": "mpich-gm"}`},
		{"/run", `{"sweep": {"seed": 0, "limit": 2, "k_only": true}, "shard": "0/1"}`},
		{"/run", `{"sweep": {"seed": 0, "limit": 2}, "shard": "2/2"}`},
		{"/run", `{"sweep": {"seed": 0, "limit": 2, "machines": ["mpich-gm"]}, "shard": "0/1"}`},
	} {
		resp, err := http.Post(base+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
}

// TestAnnounceAndReaper: Announce registers a worker and keeps it live;
// once the announcer stops, the TTL reaper marks it dead.
func TestAnnounceAndReaper(t *testing.T) {
	coord, coordURL := startCoordinator(t, Options{HeartbeatTTL: 150 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	go Announce(ctx, nil, coordURL, "http://127.0.0.1:9", 20*time.Millisecond)

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := coord.Status()
		if len(st.Workers) == 1 && st.Workers[0].State == "idle" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never registered: %+v", st.Workers)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel() // heartbeats stop; the reaper must notice
	deadline = time.Now().Add(5 * time.Second)
	for {
		st := coord.Status()
		if len(st.Workers) == 1 && st.Workers[0].State == "dead" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("silent worker never reaped: %+v", st.Workers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
