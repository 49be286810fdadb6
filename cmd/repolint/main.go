// Command repolint enforces the repository's own code invariants with a
// stdlib go/ast pass — the ones regressions keep trying to reintroduce:
//
//  1. No package-level mutable state outside an explicit allowlist.
//     Process-global state breaks session isolation (concurrent sweeps must
//     not share counters) and reproducibility. Error sentinels
//     (`var Err... = errors.New/fmt.Errorf(...)`) and blank-identifier
//     assertions (`var _ Iface = ...`) are allowed automatically; anything
//     else needs an allowlist entry next to a reason.
//  2. No time.Now/time.Since in deterministic packages. Every measured
//     number must come from the simulated clock so reports are
//     bit-reproducible; only internal/harness may read the wall clock (its
//     wall-time counters are explicitly volatile and normalized away by the
//     tests).
//  3. Memo hygiene in internal/tune: any function that touches the memo's
//     entries map must route the Choice through cloneChoice, so the memo
//     stores deep copies and hands out deep copies — callers annotate their
//     Choice without corrupting the cache.
//  4. No timeout-less net/http servers in cmd/. An http.Server composite
//     literal must set both ReadHeaderTimeout and ReadTimeout, and the
//     http.ListenAndServe / http.Serve conveniences (which construct a
//     timeout-less server internally) are banned outright — a slow-loris
//     client dribbling header bytes, or one that announces a body and stops
//     sending it, would otherwise pin a planserver connection and its
//     handler forever.
//  5. Hot-path discipline in internal/exec: no reflect import, and no
//     func-valued map types (map-based dispatch tables). The execution
//     engines are the inner loop of every sweep; dispatch there is a flat
//     switch over opcodes or an array index, never a hash lookup or a
//     reflective call.
//  6. One recover() under internal/: the rank harness (internal/interp/
//     run.go), which turns a panic on a simulated rank's goroutine into that
//     rank's error with the wording the engines' differential contract
//     fixes. Any other recover either duplicates it or hides a bug that
//     should be a positioned diagnostic.
//  7. One way to run a program: no call to the walk oracle's Load (package
//     interp) outside internal/exec, internal/interp and tests. Product
//     code runs programs through exec.Runner (Engine walk reaches the
//     oracle); tests keep calling the walker directly as the reference.
//  8. verify re-proves: nothing under internal/verify, tests included, names
//     analysis.ProofMemo or the Proofs field of analysis.Options, or calls
//     transform.Check. The transformer memoises its proofs on the
//     core.Program and decides each site in its check half; the validator is
//     there to catch one acting on a wrong fact or verdict, so it re-derives
//     them all.
//  9. Product code has a product caller: every func or method declared in a
//     non-test file under cmd/ or internal/ (main and init aside) is named by
//     some non-test file outside benchmark/. Code only tests reach belongs in
//     the tests; code no program reaches belongs nowhere. The pass is
//     name-based across the whole tree, so a name collision can hide dead
//     code but live code is never flagged. What cannot move or go — a test
//     API another package's tests import, a benchmark probe, a method only an
//     interface calls — sits in allowedUncalled with its reason, and an entry
//     that names no function, or whose function gained a product reference,
//     is itself a finding, so the list only shrinks.
//
// Usage:
//
//	repolint [dir]
//
// dir defaults to ".". Test files (_test.go) are exempt from rule 1 and 2 —
// tests legitimately use fixtures and wall-clock bounds. Exit status is 1
// when any finding is reported, 2 on a usage or parse error.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// allowedGlobals is the package-level mutable state the repository accepts,
// keyed by "<package dir>:<identifier>". Every entry carries its reason —
// an addition here is a design decision, not a lint appeasement.
var allowedGlobals = map[string]string{
	// Immutable lookup tables built once at init and only ever read.
	"internal/ftn:tokNames":       "token-kind name table (read-only)",
	"internal/ftn:dotOps":         "Fortran dot-operator table (read-only)",
	"internal/ftn:relOps":         "relational-operator spelling table (read-only)",
	"internal/interp:mpiConsts":   "MPI named-constant table (read-only)",
	"internal/interp:mpiRoutines": "MPI routine signature table (read-only)",
	// A sync.Pool is a cache, not state: nothing observable depends on what
	// it holds, and it is the only way scratch outlives one run.
	"internal/exec:stripPool":    "strip-executor lane vectors recycled across runs (sync.Pool; a per-run or per-Program scratch would add ~20 KiB per rank to runs that allocate ~2 MiB)",
	"internal/interp:scratches":  "the working memory of finished recordings (search window, keys, in-flight marks, watch bitmaps) lent to new ones (sync.Pool; a transformed exchange holds every request open at once, so each recording would grow its marks and window afresh: 33 of 804 MB over 12 BenchmarkPlanCold iterations went to marks alone)",
	"internal/mpi:spare":         "the arenas (matching-queue arrays, ranks with their request-handle tables) and the request and payload-word slabs of finished runs lent to new ones (sync.Pools; a prepush rank posts K·(np−1) requests an exchange and holds nearly all of them open at once, so a run allocated a 176-byte Request per message side: isend/irecv were 27 % of sim-comm's bytes over 12 rounds, and its alloc_mb fell 93.7 → 62.0 MiB with this and netsim's spareRings; fresh payload copies (179 MB), post's closures (53.5 MB) and the binding's handle table (46 MB) were 35 % of its 786 MB more, and with payload words and handle tables here it reads 37.8 MiB)",
	"internal/netsim:spareRings": "the lane rings of finished runs lent to new ones (sync.Pool; a prepush rank queues an event for every message it posts before it first blocks, so each run grew its lanes from empty: lane.push was 7.1 % of sim-comm's bytes over 12 rounds)",
	// Test seams that product code only reads: nil outside tests.
	"internal/dep:observePair":      "differential-test observer of pair queries (set only by internal/dep's tests, which hold every answer to the reference solver)",
	"internal/analysis:observeSlab": "differential-test observer of §3.4 slab proofs (set only by internal/analysis's tests, which hold every verdict to the exhaustive enumeration and pin the elements evaluated)",
	// The linter's own configuration tables (read-only).
	"cmd/repolint:allowedGlobals":  "this allowlist",
	"cmd/repolint:allowedUncalled": "rule 9's allowlist",
}

// allowedUncalled is rule 9's allowlist: functions declared under cmd/ or
// internal/ that no non-test file outside benchmark/ names, keyed by
// "<package dir>:<name>" (methods as "<package dir>:<Type>.<Method>"), each
// with its reason. An in-package test API never belongs here — it moves into
// that package's _test.go files.
var allowedUncalled = map[string]string{
	// Test APIs of one package imported by another package's tests; Go
	// cannot import a _test.go file across packages.
	"internal/ftn:MustParse":      "fixture parser the tests of analysis and core import",
	"internal/interp:SameOutput":  "observable comparison the exec and tune differential tests import",
	"internal/interp:MPIRoutines": "the binding's signature table, which exec's tests walk against the bytecode's MPI errors",
	// Reached only from benchmark/'s fleet probe; they go when the probe
	// does.
	"internal/fleet:Client.RunTune":       "benchmark fleet.dispatch_overhead probe",
	"internal/fleet:NewCoordinator":       "benchmark fleet.dispatch_overhead probe",
	"internal/fleet:Coordinator.Register": "benchmark fleet.dispatch_overhead probe",
	"internal/fleet:Coordinator.Mux":      "benchmark fleet.dispatch_overhead probe",
	"internal/fleet:NewWorker":            "benchmark fleet.dispatch_overhead probe",
	"internal/fleet:Worker.Mux":           "benchmark fleet.dispatch_overhead probe",
	// Layer probes of the simulator's own cost, driven only by benchmark/.
	"internal/netsim:Cluster.Transfer":     "benchmark netsim.transfer_ns probe",
	"internal/netsim:Engine.NewCompletion": "benchmark netsim.event_ns probe",
	// The closure forms of a message's buffer, which only benchmark/'s
	// mpi.alltoall_us_p50 and mpi.isend_ring_us_per_msg probes call; the
	// binding and the replay post payload values. They go when the probes do.
	"internal/mpi:Rank.Isend":    "benchmark mpi.isend_ring_us_per_msg probe",
	"internal/mpi:Rank.Irecv":    "benchmark mpi.isend_ring_us_per_msg probe",
	"internal/mpi:Rank.Alltoall": "benchmark mpi.alltoall_us_p50 probe",
	// Called by the standard library through an interface, never by name.
	"internal/session:queryError.Unwrap": "errors.Is/As unwrap a query error to its cause",
}

// recoverFile is the one file under internal/ allowed to call recover().
const recoverFile = "internal/interp/run.go"

// deterministicRoot is the tree where wall-clock reads are banned; the
// packages under it compute simulated time only.
const deterministicRoot = "internal"

// wallClockPkg is the one deterministic-tree package allowed to read the
// wall clock (reported as explicitly volatile counters).
const wallClockPkg = "internal/harness"

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: repolint [dir]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 1 {
		flag.Usage()
		os.Exit(2)
	}
	root := "."
	if flag.NArg() == 1 {
		root = flag.Arg(0)
	}
	findings, err := lintTree(root, allowedUncalled)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// lintTree walks a module tree and lints every Go file, then applies the
// cross-file rule 9 against the uncalled allowlist.
func lintTree(root string, uncalled map[string]string) ([]string, error) {
	var findings []string
	files := map[string]*ast.File{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		findings = append(findings, lintFile(fset, rel, f)...)
		files[rel] = f
		return nil
	})
	if err != nil {
		return nil, err
	}
	findings = append(findings, lintProductCallers(fset, files, uncalled)...)
	sort.Strings(findings)
	return findings, nil
}

// lintFile applies every rule to one parsed file; rel is the file path
// relative to the module root (slash-separated).
func lintFile(fset *token.FileSet, rel string, f *ast.File) []string {
	var findings []string
	pkgDir := filepath.ToSlash(filepath.Dir(rel))
	isTest := strings.HasSuffix(rel, "_test.go")

	report := func(pos token.Pos, rule, format string, args ...any) {
		findings = append(findings, fmt.Sprintf("%s: %s: %s",
			fset.Position(pos), rule, fmt.Sprintf(format, args...)))
	}

	if !isTest {
		lintGlobals(pkgDir, f, report)
		lintWallClock(pkgDir, f, report)
		lintHTTPTimeouts(pkgDir, f, report)
		lintExecHotPath(pkgDir, f, report)
		lintRecover(rel, f, report)
		lintOneRoad(pkgDir, f, report)
	}
	lintMemoClone(pkgDir, f, report)
	lintVerifyReproves(pkgDir, f, report)
	return findings
}

type reportFn func(pos token.Pos, rule, format string, args ...any)

// lintGlobals flags package-level var declarations that are neither
// auto-allowed (blank assertions, error sentinels) nor allowlisted.
func lintGlobals(pkgDir string, f *ast.File, report reportFn) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if name.Name == "_" {
					continue // interface-satisfaction assertion
				}
				if i < len(vs.Values) && isErrorSentinel(vs.Values[i]) {
					continue
				}
				if _, ok := allowedGlobals[pkgDir+":"+name.Name]; ok {
					continue
				}
				report(name.Pos(), "mutable-global",
					"package-level var %s is mutable process state; scope it to a session or allowlist it with a reason", name.Name)
			}
		}
	}
}

// isErrorSentinel reports whether a value is an errors.New or fmt.Errorf
// call — the conventional immutable error sentinel.
func isErrorSentinel(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	return (pkg.Name == "errors" && sel.Sel.Name == "New") ||
		(pkg.Name == "fmt" && sel.Sel.Name == "Errorf")
}

// lintWallClock flags time.Now/time.Since in deterministic packages.
func lintWallClock(pkgDir string, f *ast.File, report reportFn) {
	if !strings.HasPrefix(pkgDir, deterministicRoot+"/") || pkgDir == wallClockPkg {
		return
	}
	if !importsPackage(f, "time") {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" &&
			(sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
			report(sel.Pos(), "wall-clock",
				"time.%s in deterministic package %s; measured numbers must come from the simulated clock", sel.Sel.Name, pkgDir)
		}
		return true
	})
}

// importsPackage reports whether the file imports the named stdlib package
// under its default name (the last path element — "http" for "net/http").
func importsPackage(f *ast.File, path string) bool {
	base := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		base = path[i+1:]
	}
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) == path && (imp.Name == nil || imp.Name.Name == base) {
			return true
		}
	}
	return false
}

// lintHTTPTimeouts flags net/http servers in cmd/ that can be held open by
// a client that never finishes its request: an http.Server literal without
// ReadHeaderTimeout (headers) or ReadTimeout (the body — ReadHeaderTimeout
// stops covering a request once its headers are in), or the package-level
// ListenAndServe/Serve conveniences (whose implicit server has no timeouts
// at all).
func lintHTTPTimeouts(pkgDir string, f *ast.File, report reportFn) {
	if pkgDir != "cmd" && !strings.HasPrefix(pkgDir, "cmd/") {
		return
	}
	if !importsPackage(f, "net/http") {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			sel, ok := n.Type.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "http" || sel.Sel.Name != "Server" {
				return true
			}
			set := map[string]bool{}
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						set[id.Name] = true
					}
				}
			}
			for _, field := range []string{"ReadHeaderTimeout", "ReadTimeout"} {
				if !set[field] {
					report(n.Pos(), "http-timeout",
						"http.Server constructed without %s; a client that stalls its request can pin the connection forever", field)
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "http" &&
				(sel.Sel.Name == "ListenAndServe" || sel.Sel.Name == "ListenAndServeTLS" || sel.Sel.Name == "Serve") {
				report(sel.Pos(), "http-timeout",
					"http.%s builds a server with no timeouts; construct an http.Server with ReadHeaderTimeout and ReadTimeout and call its methods", sel.Sel.Name)
			}
		}
		return true
	})
}

// lintExecHotPath keeps the execution engines' inner loop flat: no
// reflect (a reflective call in the dispatch path costs more than the
// instruction it dispatches), and no func-valued map type — a map from
// anything to a func is a dispatch table, and dispatch in internal/exec
// must be a flat switch over opcodes or an array index, never a hash
// lookup per instruction.
func lintExecHotPath(pkgDir string, f *ast.File, report reportFn) {
	if pkgDir != "internal/exec" {
		return
	}
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) == "reflect" {
			report(imp.Pos(), "exec-hot-path",
				"internal/exec must not import reflect; the engines dispatch through flat switches, not reflection")
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		mt, ok := n.(*ast.MapType)
		if !ok {
			return true
		}
		if _, ok := mt.Value.(*ast.FuncType); ok {
			report(mt.Pos(), "exec-hot-path",
				"func-valued map in internal/exec is a map-based dispatch table; use a flat switch or an array indexed by opcode")
		}
		return true
	})
}

// lintRecover flags recover() calls under internal/ outside the rank
// harness.
func lintRecover(rel string, f *ast.File, report reportFn) {
	if !strings.HasPrefix(rel, "internal/") || rel == recoverFile {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" && len(call.Args) == 0 {
				report(call.Pos(), "stray-recover",
					"recover() outside %s; a rank's panic is converted once, in the rank harness — return a positioned error instead", recoverFile)
			}
		}
		return true
	})
}

// lintOneRoad flags calls to package interp's Load outside the two engine
// packages.
func lintOneRoad(pkgDir string, f *ast.File, report reportFn) {
	if pkgDir == "internal/exec" || pkgDir == "internal/interp" || !importsPackage(f, "repro/internal/interp") {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Load" {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "interp" {
				report(sel.Pos(), "one-road",
					"the walk oracle's Load called outside the engines; run programs through exec.Runner (Engine: exec.EngineWalk for the oracle)")
			}
		}
		return true
	})
}

// lintMemoClone enforces the deep-copy contract of the plan memo: any
// function in internal/tune whose body indexes the entries map must call
// cloneChoice — dropping the clone aliases cached Choices into callers.
func lintMemoClone(pkgDir string, f *ast.File, report reportFn) {
	if pkgDir != "internal/tune" {
		return
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		touchesEntries := false
		callsClone := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IndexExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "entries" {
					touchesEntries = true
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "cloneChoice" {
					callsClone = true
				}
			}
			return true
		})
		if touchesEntries && !callsClone {
			report(fd.Pos(), "memo-alias",
				"%s touches the memo's entries map without cloneChoice; the memo must store and hand out deep copies", fd.Name.Name)
		}
	}
}

// lintVerifyReproves flags any mention of the transformer's proof memo in
// the static verifier — the memo's type, or the analysis.Options field that
// carries one — and any call of the transformer's check half.
func lintVerifyReproves(pkgDir string, f *ast.File, report reportFn) {
	if pkgDir != "internal/verify" && !strings.HasPrefix(pkgDir, "internal/verify/") {
		return
	}
	asksTransform := importsPackage(f, "repro/internal/transform")
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if n.Name == "ProofMemo" || n.Name == "Proofs" {
				report(n.Pos(), "verify-reproves",
					"%s named in internal/verify; the validator must re-prove from the source, never read the transformer's memoised proofs", n.Name)
			}
		case *ast.SelectorExpr:
			if pkg, ok := n.X.(*ast.Ident); ok && asksTransform && pkg.Name == "transform" && n.Sel.Name == "Check" {
				report(n.Pos(), "verify-reproves",
					"transform.Check called in internal/verify; the validator must re-derive the transformer's verdicts, never ask the transformer for them")
			}
		}
		return true
	})
}

// lintProductCallers is rule 9: it gathers the funcs and methods declared in
// non-test files under cmd/ and internal/, then every identifier named by
// non-test files (declared function names aside), and flags each declaration
// that no file outside benchmark/ names unless uncalled allowlists it — and
// each allowlist entry that declares nothing or is named after all.
func lintProductCallers(fset *token.FileSet, files map[string]*ast.File, uncalled map[string]string) []string {
	type decl struct {
		key, name string
		pos       token.Pos
	}
	var decls []decl
	product, bench := map[string]bool{}, map[string]bool{}
	for rel, f := range files {
		if strings.HasSuffix(rel, "_test.go") {
			continue
		}
		pkgDir := filepath.ToSlash(filepath.Dir(rel))
		declares := strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "internal/")
		names := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names[fd.Name] = true
			if !declares || fd.Name.Name == "main" || fd.Name.Name == "init" {
				continue
			}
			key := pkgDir + ":" + fd.Name.Name
			if fd.Recv != nil {
				recv := strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*")
				key = pkgDir + ":" + recv + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fd.Name.Name, fd.Name.Pos()})
		}
		refs := product
		if strings.HasPrefix(rel, "benchmark/") {
			refs = bench
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				refs[id.Name] = true
			}
			return true
		})
	}

	var findings []string
	report := func(pos token.Pos, format string, args ...any) {
		findings = append(findings, fmt.Sprintf("%s: product-caller: %s", fset.Position(pos), fmt.Sprintf(format, args...)))
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		_, allowed := uncalled[d.key]
		switch {
		case product[d.name] && allowed:
			report(d.pos, "%s is allowlisted as uncalled but product code names it; drop its allowedUncalled entry", d.key)
		case product[d.name] || allowed:
		case bench[d.name]:
			report(d.pos, "%s is named only under benchmark/; give it a product caller, delete it, or allowlist it with a reason", d.key)
		default:
			report(d.pos, "%s has no caller outside tests; move it into the tests that use it or delete it", d.key)
		}
	}
	for key := range uncalled {
		if !declared[key] {
			findings = append(findings, fmt.Sprintf("cmd/repolint: product-caller: allowedUncalled entry %s names no function declared under cmd/ or internal/", key))
		}
	}
	return findings
}
