package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/session"
	"repro/internal/workload"
)

// startServer mounts the real mux on an ephemeral TCP listener — the same
// wire path a deployed server answers on — and returns its base URL.
func startServer(t *testing.T) string {
	t.Helper()
	sess, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: newMux(sess)}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String()
}

func postPlan(t *testing.T, base string, q session.Query) (*session.Result, *http.Response) {
	t.Helper()
	body, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp // body left open for the caller's error checks
	}
	defer resp.Body.Close()
	var res session.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return &res, resp
}

// TestServerSmoke is the end-to-end contract: a cold POST /plan runs the
// search, the identical repeat is served from the memo (memo_hit=true, no
// new compiled variants, much faster), and /stats accounts for both.
func TestServerSmoke(t *testing.T) {
	base := startServer(t)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", resp.StatusCode)
	}

	q := session.Query{
		Source:  workload.DirectSource(workload.DirectParams{NX: 4096, NP: 4}),
		Machine: "mpich-gm-2005",
		NP:      4,
	}
	first, resp := postPlan(t, base, q)
	if first == nil {
		t.Fatalf("cold POST /plan = %d, want 200", resp.StatusCode)
	}
	if first.MemoHit {
		t.Fatal("cold query reported memo_hit")
	}
	if first.Choice.Plan == nil || len(first.Choice.Plan.Sites) == 0 {
		t.Fatal("cold query returned no overlap plan")
	}
	if !strings.HasPrefix(first.Fingerprint, "fp1-") {
		t.Fatalf("fingerprint %q has no version prefix", first.Fingerprint)
	}

	var stats session.Stats
	getJSON(t, base+"/stats", &stats)
	if stats.Store.Compiled == 0 {
		t.Fatal("cold query compiled nothing")
	}
	if stats.Memo.Misses != 1 || stats.Memo.Entries != 1 {
		t.Fatalf("stats after cold query = %+v", stats)
	}

	start := time.Now()
	second, resp := postPlan(t, base, q)
	warmWall := time.Since(start)
	if second == nil {
		t.Fatalf("warm POST /plan = %d, want 200", resp.StatusCode)
	}
	if !second.MemoHit {
		t.Fatal("repeat query was not served from the memo")
	}
	if second.Choice.Plan.Key() != first.Choice.Plan.Key() {
		t.Fatal("memoized plan differs from the tuned plan")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Fatal("fingerprint unstable across identical queries")
	}

	var warm session.Stats
	getJSON(t, base+"/stats", &warm)
	if warm.Store.Compiled != stats.Store.Compiled {
		t.Fatalf("repeat query compiled %d new variants, want 0",
			warm.Store.Compiled-stats.Store.Compiled)
	}
	if warm.Memo.Hits != 1 {
		t.Fatalf("stats after warm query = %+v", warm)
	}
	// The wire format is part of the contract: counters are snake_case
	// (a typed round trip above would survive losing the json tags).
	resp, err = http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"compiled"`, `"disk_hits"`, `"hits"`, `"entries"`, `"replayed_runs"`, `"sliced_runs"`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Errorf("GET /stats body missing %s: %s", key, raw)
		}
	}
	// A memo hit skips analysis and search entirely; even on a loaded CI
	// box an HTTP round trip plus a map lookup clears a generous bound.
	if warmWall > 5*time.Second {
		t.Fatalf("memo-hit query took %v — the search appears to have rerun", warmWall)
	}
}

// TestServerRejectsBadQueries: client mistakes are 400s with a JSON error,
// not 500s and not silent searches of garbage.
func TestServerRejectsBadQueries(t *testing.T) {
	base := startServer(t)
	src := workload.DirectSource(workload.DirectParams{NX: 4096, NP: 4})

	bad := []session.Query{
		{Machine: "mpich-gm-2005", NP: 4},            // no source
		{Source: src, Machine: "mpich-gm-2005"},      // no rank count
		{Source: src, Machine: "no-such-box", NP: 4}, // unknown machine
	}
	for i, q := range bad {
		res, resp := postPlan(t, base, q)
		if res != nil || resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad query %d: status %d, want 400", i, resp.StatusCode)
			continue
		}
		var e map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
			t.Errorf("bad query %d: no JSON error body (%v)", i, err)
		}
		resp.Body.Close()
	}

	// Malformed JSON and unknown fields — the retired k_only among them —
	// are 400s too.
	for _, body := range []string{"{not json",
		`{"source": "x", "np": 4, "machine": "mpich-gm-2005", "bogus": 1}`,
		`{"source": "x", "np": 4, "machine": "mpich-gm-2005", "k_only": true}`} {
		resp, err := http.Post(base+"/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// Wrong methods are 405s that name the right one.
	resp, err := http.Get(base + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET /plan = %d (Allow %q), want 405 with Allow: POST", resp.StatusCode, resp.Header.Get("Allow"))
	}
	resp, err = http.Post(base+"/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats = %d, want 405", resp.StatusCode)
	}
}

// TestServerNamesTheKsThatFire: a query with no fixed_k whose site does not
// fire at the machine's default K is the query's fault, not the server's: a
// 422 naming the Ks at which the site fires, and a re-query at one of them is
// answered.
func TestServerNamesTheKsThatFire(t *testing.T) {
	base := startServer(t)
	m, err := plan.ByName("mpich-gm-2005")
	if err != nil {
		t.Fatal(err)
	}
	// 48 elements over 4 ranks: partitions of 12, which no K of 8 tiles.
	q := session.Query{Source: workload.DirectSource(workload.DirectParams{NX: 48, NP: 4}), Machine: m.Name, NP: 4}
	res, resp := postPlan(t, base, q)
	if res != nil || resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("default K=%d that does not fire: status %d, want 422", m.DefaultK(), resp.StatusCode)
	}
	var e struct {
		Error    string  `json:"error"`
		Machine  string  `json:"machine"`
		FixedK   int64   `json:"fixed_k"`
		Sites    int     `json:"sites"`
		FiringKs []int64 `json:"firing_ks"`
	}
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "did not fire") || e.Machine != m.Name || e.FixedK != m.DefaultK() || e.Sites != 1 {
		t.Errorf("422 body %+v: want the error, machine %s, fixed_k %d and 1 site", e, m.Name, m.DefaultK())
	}
	if want := []int64{1, 2, 3, 4, 6, 12}; !reflect.DeepEqual(e.FiringKs, want) {
		t.Fatalf("firing_ks = %v, want %v", e.FiringKs, want)
	}
	q.FixedK = e.FiringKs[len(e.FiringKs)-1]
	res, resp = postPlan(t, base, q)
	if res == nil {
		t.Fatalf("re-query at fixed_k %d: status %d, want 200", q.FixedK, resp.StatusCode)
	}
	if res.Choice.FixedK != q.FixedK || res.Choice.Plan == nil {
		t.Errorf("re-query at fixed_k %d answered with fixed K %d, plan %v", q.FixedK, res.Choice.FixedK, res.Choice.Plan)
	}
}

// TestServerCapsBody: a body over the 16 MiB cap is a JSON 413, not an OOM
// and not a generic 400.
func TestServerCapsBody(t *testing.T) {
	base := startServer(t)
	huge := `{"source": "` + strings.Repeat("x", maxQueryBytes+1) + `"}`
	resp, err := http.Post(base+"/plan", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e["error"], "exceeds") {
		t.Fatalf("oversized body: error %q (%v), want a JSON size message", e["error"], err)
	}
}

// TestServerRejectsEmptySource: an empty (or all-whitespace) source is a
// 400 naming the field, rejected before any analysis runs.
func TestServerRejectsEmptySource(t *testing.T) {
	base := startServer(t)
	for _, src := range []string{"", "   \n\t"} {
		res, resp := postPlan(t, base, session.Query{Source: src, Machine: "mpich-gm-2005", NP: 4})
		if res != nil || resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("source %q: status %d, want 400", src, resp.StatusCode)
		}
		var e map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e["error"], "source") {
			t.Errorf("source %q: error %q (%v), want it to name the source field", src, e["error"], err)
		}
		resp.Body.Close()
	}
}

// TestPlanResponseVerifyStatus: every /plan answer carries the static
// verdict on the chosen plan, and a tuned plan over a well-formed program
// verifies clean.
func TestPlanResponseVerifyStatus(t *testing.T) {
	base := startServer(t)
	q := session.Query{
		Source:  workload.DirectSource(workload.DirectParams{NX: 4096, NP: 4}),
		Machine: "mpich-gm-2005",
		NP:      4,
	}
	post := func() verifyStatus {
		t.Helper()
		body, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /plan = %d, want 200", resp.StatusCode)
		}
		var pr planResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr.Verify
	}
	cold := post()
	if !cold.Checked || !cold.Clean || len(cold.Findings) != 0 {
		t.Fatalf("cold verify status %+v, want checked and clean", cold)
	}
	warm := post()
	if !warm.Checked || !warm.Clean {
		t.Fatalf("warm verify status %+v, want checked and clean (from the ledger)", warm)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
