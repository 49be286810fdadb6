package main

import (
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain re-invokes main when the harness env var is set, so exit-code
// tests can spawn the real command from the test binary without a build.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("EVALRUNNER_ARGS"); ok {
		os.Args = append([]string{"evalrunner"}, strings.Fields(args)...)
		main()
		return
	}
	os.Exit(m.Run())
}

// TestUnknownEngineExit2: a bad -engine name — or a retired flag such as
// -tune-konly or -tunemax — is a usage error (exit 2), diagnosed before any
// sweeping starts.
func TestUnknownEngineExit2(t *testing.T) {
	cases := []struct {
		name    string
		args    string
		wantOut string
	}{
		{name: "unknown engine", args: "-engine jit", wantOut: "unknown engine"},
		{name: "retired closure engine", args: "-engine compile", wantOut: "unknown engine"},
		{name: "unknown tune check engine", args: "-tune -tune-check-engine jit", wantOut: "unknown engine"},
		{name: "retired tune-konly flag", args: "-tune -tune-konly", wantOut: "flag provided but not defined"},
		{name: "retired tunemax flag", args: "-tune -tunemax 6", wantOut: "flag provided but not defined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmd := osexec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "EVALRUNNER_ARGS="+c.args)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*osexec.ExitError)
			if !ok {
				t.Fatalf("evalrunner %s: err = %v (output %q), want exit error", c.args, err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("evalrunner %s: exit %d (output %q), want 2", c.args, code, out)
			}
			if !strings.Contains(string(out), c.wantOut) {
				t.Fatalf("evalrunner %s: output %q does not mention %q", c.args, out, c.wantOut)
			}
		})
	}
}

// TestProfileFlags: -cpuprofile and -memprofile write non-empty pprof files
// on a clean run, and a path that cannot be created is a usage error
// diagnosed before any sweeping.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	cmd := osexec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "EVALRUNNER_ARGS=-q -out= -limit 2 -min 1 -cpuprofile "+cpu+" -memprofile "+mem)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("profiled run: %v (output %q)", err, out)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: not written (stat %v, err %v)", path, fi, err)
		}
	}

	for _, flagName := range []string{"-cpuprofile", "-memprofile"} {
		cmd := osexec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "EVALRUNNER_ARGS=-q -out= "+flagName+" "+filepath.Join(dir, "no", "such", "dir", "p"))
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*osexec.ExitError)
		if !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), flagName) {
			t.Fatalf("%s to an uncreatable path: err %v, output %q; want exit 2 naming the flag", flagName, err, out)
		}
	}
}
