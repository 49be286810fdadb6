package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintSrc parses a synthetic file as if it lived at rel and lints it.
func lintSrc(t *testing.T, rel, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, rel, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return lintFile(fset, rel, f)
}

func wantRule(t *testing.T, findings []string, rule string) {
	t.Helper()
	for _, f := range findings {
		if strings.Contains(f, rule) {
			return
		}
	}
	t.Errorf("no %s finding in %v", rule, findings)
}

func TestMutableGlobalRule(t *testing.T) {
	cases := []struct {
		name string
		rel  string
		src  string
		want bool // a mutable-global finding expected
	}{
		{name: "plain mutable var", rel: "internal/foo/a.go", want: true,
			src: "package foo\nvar cache = map[string]int{}\n"},
		{name: "error sentinel errors.New", rel: "internal/foo/a.go", want: false,
			src: "package foo\nimport \"errors\"\nvar ErrBad = errors.New(\"bad\")\n"},
		{name: "error sentinel fmt.Errorf", rel: "internal/foo/a.go", want: false,
			src: "package foo\nimport \"fmt\"\nvar errStop = fmt.Errorf(\"stop\")\n"},
		{name: "blank assertion", rel: "internal/foo/a.go", want: false,
			src: "package foo\nvar _ error = (*myErr)(nil)\ntype myErr struct{}\nfunc (*myErr) Error() string { return \"\" }\n"},
		{name: "allowlisted", rel: "internal/ftn/lexer.go", want: false,
			src: "package ftn\nvar dotOps = map[string]string{}\n"},
		{name: "allowlist is per package", rel: "internal/foo/a.go", want: true,
			src: "package foo\nvar dotOps = map[string]string{}\n"},
		{name: "test file exempt", rel: "internal/foo/a_test.go", want: false,
			src: "package foo\nvar fixtures = map[string]int{}\n"},
		{name: "const is not state", rel: "internal/foo/a.go", want: false,
			src: "package foo\nconst limit = 3\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			findings := lintSrc(t, c.rel, c.src)
			if c.want {
				wantRule(t, findings, "mutable-global")
			} else if len(findings) != 0 {
				t.Errorf("unexpected findings: %v", findings)
			}
		})
	}
}

func TestWallClockRule(t *testing.T) {
	src := "package foo\nimport \"time\"\nfunc f() int64 { return time.Now().UnixNano() }\n"
	wantRule(t, lintSrc(t, "internal/foo/a.go", src), "wall-clock")

	since := "package foo\nimport \"time\"\nfunc f(t0 time.Time) time.Duration { return time.Since(t0) }\n"
	wantRule(t, lintSrc(t, "internal/foo/a.go", since), "wall-clock")

	// The harness is exempt; cmd/ and test files are out of scope.
	for _, rel := range []string{"internal/harness/a.go", "cmd/foo/a.go", "internal/foo/a_test.go"} {
		if findings := lintSrc(t, rel, src); len(findings) != 0 {
			t.Errorf("%s: unexpected findings %v", rel, findings)
		}
	}

	// Durations and the type itself are fine — only wall-clock reads are
	// banned.
	ok := "package foo\nimport \"time\"\nconst tick = 5 * time.Millisecond\n"
	if findings := lintSrc(t, "internal/foo/a.go", ok); len(findings) != 0 {
		t.Errorf("duration constant flagged: %v", findings)
	}
}

func TestMemoCloneRule(t *testing.T) {
	aliasing := `package tune
type Memo struct{ entries map[string]Choice }
type Choice struct{}
func (m *Memo) Lookup(k string) (Choice, bool) { ch, ok := m.entries[k]; return ch, ok }
`
	wantRule(t, lintSrc(t, "internal/tune/memo.go", aliasing), "memo-alias")

	cloned := `package tune
type Memo struct{ entries map[string]Choice }
type Choice struct{}
func cloneChoice(ch Choice) Choice { return ch }
func (m *Memo) Lookup(k string) (Choice, bool) { ch, ok := m.entries[k]; return cloneChoice(ch), ok }
`
	if findings := lintSrc(t, "internal/tune/memo.go", cloned); len(findings) != 0 {
		t.Errorf("cloned lookup flagged: %v", findings)
	}

	// The rule is scoped to internal/tune.
	elsewhere := strings.Replace(aliasing, "package tune", "package foo", 1)
	if findings := lintSrc(t, "internal/foo/memo.go", elsewhere); len(findings) != 0 {
		t.Errorf("out-of-scope memo code flagged: %v", findings)
	}
}

func TestHTTPTimeoutRule(t *testing.T) {
	bare := `package main
import "net/http"
func main() { srv := &http.Server{Addr: ":80"}; _ = srv }
`
	wantRule(t, lintSrc(t, "cmd/foo/main.go", bare), "http-timeout")

	convenience := `package main
import "net/http"
func main() { _ = http.ListenAndServe(":80", nil) }
`
	wantRule(t, lintSrc(t, "cmd/foo/main.go", convenience), "http-timeout")

	serveConvenience := `package main
import (
	"net"
	"net/http"
)
func main() { var ln net.Listener; _ = http.Serve(ln, nil) }
`
	wantRule(t, lintSrc(t, "cmd/foo/main.go", serveConvenience), "http-timeout")

	// Either read timeout alone leaves a stalled request open: headers
	// without ReadHeaderTimeout, a body without ReadTimeout.
	for _, c := range []struct{ set, missing string }{
		{"ReadHeaderTimeout", "ReadTimeout"},
		{"ReadTimeout", "ReadHeaderTimeout"},
	} {
		src := `package main
import (
	"net/http"
	"time"
)
func main() { srv := &http.Server{Addr: ":80", ` + c.set + `: 10 * time.Second}; _ = srv }
`
		findings := lintSrc(t, "cmd/foo/main.go", src)
		if len(findings) != 1 || !strings.Contains(findings[0], "without "+c.missing) {
			t.Errorf("server setting only %s: findings %v, want one naming %s", c.set, findings, c.missing)
		}
	}

	withTimeout := `package main
import (
	"net/http"
	"time"
)
func main() { srv := &http.Server{Addr: ":80", ReadHeaderTimeout: 10 * time.Second, ReadTimeout: 20 * time.Second}; _ = srv }
`
	if findings := lintSrc(t, "cmd/foo/main.go", withTimeout); len(findings) != 0 {
		t.Errorf("server with both read timeouts flagged: %v", findings)
	}

	// Out of scope: internal packages (servers there are the caller's
	// responsibility to configure) and test files (ephemeral listeners).
	for _, rel := range []string{"internal/foo/a.go", "cmd/foo/main_test.go"} {
		if findings := lintSrc(t, rel, bare); len(findings) != 0 {
			t.Errorf("%s: unexpected findings %v", rel, findings)
		}
	}

	// srv.ListenAndServe() on a configured server is the blessed pattern —
	// only the package-level conveniences are flagged.
	method := `package main
import (
	"net/http"
	"time"
)
func main() {
	srv := &http.Server{Addr: ":80", ReadHeaderTimeout: 10 * time.Second, ReadTimeout: 20 * time.Second}
	_ = srv.ListenAndServe()
}
`
	if findings := lintSrc(t, "cmd/foo/main.go", method); len(findings) != 0 {
		t.Errorf("configured server's own ListenAndServe flagged: %v", findings)
	}
}

func TestExecHotPathRule(t *testing.T) {
	cases := []struct {
		name string
		rel  string
		src  string
		want bool // an exec-hot-path finding expected
	}{
		{name: "reflect import", rel: "internal/exec/fast.go", want: true,
			src: "package exec\nimport \"reflect\"\nfunc kind(v any) reflect.Kind { return reflect.TypeOf(v).Kind() }\n"},
		{name: "func-valued map type", rel: "internal/exec/fast.go", want: true,
			src: "package exec\nvar _ = map[string]func(){}\n"},
		{name: "func-valued map in signature", rel: "internal/exec/fast.go", want: true,
			src: "package exec\nfunc dispatch(tab map[int]func(int) int, op int) int { return tab[op](op) }\n"},
		{name: "data map is fine", rel: "internal/exec/fast.go", want: false,
			src: "package exec\nfunc index(names map[string]int, k string) int { return names[k] }\n"},
		{name: "flat switch is fine", rel: "internal/exec/fast.go", want: false,
			src: "package exec\nfunc step(op int) int { switch op {\ncase 0:\nreturn 1\n}\nreturn 0 }\n"},
		{name: "reflect allowed elsewhere", rel: "internal/foo/a.go", want: false,
			src: "package foo\nimport \"reflect\"\nfunc eq(a, b any) bool { return reflect.DeepEqual(a, b) }\n"},
		{name: "dispatch map allowed elsewhere", rel: "internal/foo/a.go", want: false,
			src: "package foo\nvar _ = map[string]func(){}\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			findings := lintSrc(t, c.rel, c.src)
			if c.want {
				wantRule(t, findings, "exec-hot-path")
			} else if len(findings) != 0 {
				t.Errorf("unexpected findings: %v", findings)
			}
		})
	}
}

func TestRecoverRule(t *testing.T) {
	src := "package foo\nfunc f() (err error) {\n\tdefer func() {\n\t\tif r := recover(); r != nil {\n\t\t\terr = nil\n\t\t}\n\t}()\n\treturn nil\n}\n"
	wantRule(t, lintSrc(t, "internal/exec/a.go", src), "stray-recover")
	wantRule(t, lintSrc(t, "internal/interp/mpibind.go", src), "stray-recover")

	// The rank harness owns the one recover; cmd/ and tests are out of scope.
	for _, rel := range []string{"internal/interp/run.go", "cmd/foo/a.go", "internal/foo/a_test.go"} {
		if findings := lintSrc(t, rel, src); len(findings) != 0 {
			t.Errorf("%s: unexpected findings %v", rel, findings)
		}
	}
}

func TestOneRoadRule(t *testing.T) {
	src := "package foo\nimport \"repro/internal/interp\"\nfunc f(s string) error {\n\t_, err := interp.Load(s)\n\treturn err\n}\n"
	wantRule(t, lintSrc(t, "internal/workload/a.go", src), "one-road")
	wantRule(t, lintSrc(t, "cmd/overlapsim/main.go", src), "one-road")
	wantRule(t, lintSrc(t, "examples/quickstart/main.go", src), "one-road")

	// The engines own the walker's entry; tests use it as the reference.
	for _, rel := range []string{"internal/exec/exec.go", "internal/interp/a.go", "internal/workload/a_test.go"} {
		if findings := lintSrc(t, rel, src); len(findings) != 0 {
			t.Errorf("%s: unexpected findings %v", rel, findings)
		}
	}
	// Another package's Load is not the walker's.
	other := "package foo\nimport \"repro/internal/interp\"\nvar _ interp.Value\nfunc f() { cfg.Load() }\n"
	if findings := lintSrc(t, "internal/foo/a.go", other); len(findings) != 0 {
		t.Errorf("unexpected findings %v", findings)
	}
}

func TestVerifyReprovesRule(t *testing.T) {
	// Handing the validator the transformer's memo, by field or by type.
	setsField := "package verify\nimport \"repro/internal/analysis\"\nfunc f(m *analysis.Options) { _ = analysis.Options{NP: 4, Proofs: nil} }\n"
	wantRule(t, lintSrc(t, "internal/verify/verify.go", setsField), "verify-reproves")
	namesType := "package verify\nimport \"repro/internal/analysis\"\nvar _ *analysis.ProofMemo\n"
	wantRule(t, lintSrc(t, "internal/verify/guard.go", namesType), "verify-reproves")
	// Tests are in scope too: a test that verifies through the memo proves
	// nothing about the validator.
	wantRule(t, lintSrc(t, "internal/verify/verify_test.go", namesType), "verify-reproves")

	// Asking the transformer's check half for its verdict.
	asksCheck := "package verify\nimport \"repro/internal/transform\"\nfunc f() { _, _ = transform.Check(nil, transform.Options{K: 1}) }\n"
	wantRule(t, lintSrc(t, "internal/verify/verify.go", asksCheck), "verify-reproves")
	wantRule(t, lintSrc(t, "internal/verify/verify_test.go", asksCheck), "verify-reproves")

	// What verify does today — a fresh analysis with no memo — is clean, and
	// the transformer's side may of course name its own memo.
	fresh := "package verify\nimport \"repro/internal/analysis\"\nfunc f() { _ = analysis.Options{NP: 4} }\n"
	if findings := lintSrc(t, "internal/verify/verify.go", fresh); len(findings) != 0 {
		t.Errorf("unexpected findings %v", findings)
	}
	for _, rel := range []string{"internal/core/core.go", "internal/core/proofs_test.go"} {
		for _, src := range []string{namesType, asksCheck} {
			src = strings.Replace(src, "package verify", "package core", 1)
			if findings := lintSrc(t, rel, src); len(findings) != 0 {
				t.Errorf("%s: unexpected findings %v", rel, findings)
			}
		}
	}
	// The validator may re-derive with transform's own predicates, and
	// another package's Check is not the transformer's.
	reproves := "package verify\nimport \"repro/internal/transform\"\nfunc f() { _ = transform.ReorderSafe(nil); plan.Check() }\n"
	if findings := lintSrc(t, "internal/verify/verify.go", reproves); len(findings) != 0 {
		t.Errorf("unexpected findings %v", findings)
	}
}

// lintFixture writes a fixture tree of files (slash-separated path →
// source) and lints it with uncalled as rule 9's allowlist.
func lintFixture(t *testing.T, files map[string]string, uncalled map[string]string) []string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := lintTree(root, uncalled)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func TestProductCallerRule(t *testing.T) {
	const lib = "package foo\nfunc Helper() int { return 1 }\ntype T struct{}\nfunc (*T) Probe() {}\n"
	const main = "package main\nfunc main() {}\nfunc init() {}\n"
	cases := []struct {
		name     string
		files    map[string]string
		uncalled map[string]string
		want     []string // substrings of the findings, one each, in order
	}{
		{name: "referenced only from a test",
			files: map[string]string{
				"internal/foo/foo.go":      lib,
				"internal/foo/foo_test.go": "package foo\nvar _ = Helper()\nvar _ = (*T).Probe\n",
			},
			want: []string{"internal/foo:Helper has no caller outside tests", "internal/foo:T.Probe has no caller outside tests"}},
		{name: "a product reference clears it",
			files: map[string]string{
				"internal/foo/foo.go": lib,
				"cmd/app/main.go":     "package main\nimport \"m/internal/foo\"\nfunc main() { _ = foo.Helper(); new(foo.T).Probe() }\n",
			}},
		{name: "main and init are exempt",
			files: map[string]string{"cmd/app/main.go": main}},
		{name: "referenced only from benchmark/",
			files: map[string]string{
				"internal/foo/foo.go":      lib,
				"benchmark/bench.go":       "package main\nimport \"m/internal/foo\"\nfunc main() { _ = foo.Helper(); new(foo.T).Probe() }\n",
				"internal/foo/foo_test.go": "package foo\n",
			},
			want: []string{"internal/foo:Helper is named only under benchmark/", "internal/foo:T.Probe is named only under benchmark/"}},
		{name: "benchmark/-only but allowlisted",
			files: map[string]string{
				"internal/foo/foo.go": lib,
				"benchmark/bench.go":  "package main\nimport \"m/internal/foo\"\nfunc main() { _ = foo.Helper(); new(foo.T).Probe() }\n",
			},
			uncalled: map[string]string{"internal/foo:Helper": "probe", "internal/foo:T.Probe": "probe"}},
		{name: "allowlist entry naming nothing",
			files:    map[string]string{"cmd/app/main.go": main},
			uncalled: map[string]string{"internal/foo:Gone": "deleted long ago"},
			want:     []string{"allowedUncalled entry internal/foo:Gone names no function"}},
		{name: "allowlisted function gained a product caller",
			files: map[string]string{
				"internal/foo/foo.go": lib,
				"cmd/app/main.go":     "package main\nimport \"m/internal/foo\"\nfunc main() { _ = foo.Helper(); new(foo.T).Probe() }\n",
			},
			uncalled: map[string]string{"internal/foo:Helper": "probe"},
			want:     []string{"internal/foo:Helper is allowlisted as uncalled but product code names it"}},
		{name: "out of scope: declarations outside cmd/ and internal/",
			files: map[string]string{"examples/ex.go": "package ex\nfunc Unused() {}\n"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			findings := lintFixture(t, c.files, c.uncalled)
			if len(findings) != len(c.want) {
				t.Fatalf("findings %q, want %d matching %q", findings, len(c.want), c.want)
			}
			for i, want := range c.want {
				if !strings.Contains(findings[i], "product-caller") || !strings.Contains(findings[i], want) {
					t.Errorf("finding %q, want a product-caller finding containing %q", findings[i], want)
				}
			}
		})
	}
}

// TestRepoIsClean is the enforcement test: the repository itself must lint
// clean (the CI lint job runs the binary; this keeps `go test ./...`
// equivalent).
func TestRepoIsClean(t *testing.T) {
	findings, err := lintTree("../..", allowedUncalled)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}
