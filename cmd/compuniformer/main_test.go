package main

import (
	"os"
	osexec "os/exec"
	"strings"
	"testing"
)

// TestMain re-invokes main when the harness env var is set, so exit-code
// tests can spawn the real command from the test binary without a build.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("COMPUNIFORMER_ARGS"); ok {
		os.Args = append([]string{"compuniformer"}, strings.Fields(args)...)
		main()
		return
	}
	os.Exit(m.Run())
}

// compuniformer runs the command on args and returns its stderr, failing the
// test unless it exits 0.
func compuniformer(t *testing.T, args string) string {
	t.Helper()
	cmd := osexec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "COMPUNIFORMER_ARGS="+args)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("compuniformer %s: %v\n%s", args, err, stderr.String())
	}
	return stderr.String()
}

// TestVerifyRunsTheProgramsRankCount: figure2_before.f90 declares np = 8 and
// is transformed for 8 ranks, so -verify must run it on 8 ranks whether or not
// -np 8 says so: the timings it prints are the same both ways.
func TestVerifyRunsTheProgramsRankCount(t *testing.T) {
	timings := func(args string) []string {
		var out []string
		for _, l := range strings.Split(compuniformer(t, args), "\n") {
			if strings.HasPrefix(l, "verify: ") && strings.Contains(l, " prepush ") {
				out = append(out, l)
			}
		}
		if len(out) == 0 {
			t.Fatalf("compuniformer %s printed no verify timings", args)
		}
		return out
	}
	const fixture = "../../testdata/figure2_before.f90"
	implied, explicit := timings("-verify "+fixture), timings("-verify -np 8 "+fixture)
	if strings.Join(implied, "\n") != strings.Join(explicit, "\n") {
		t.Errorf("without -np:\n%s\nwith -np 8:\n%s", strings.Join(implied, "\n"), strings.Join(explicit, "\n"))
	}
}

// TestUnknownEngineExit2: a bad -engine name is a usage error (exit 2),
// diagnosed before any transformation work happens.
func TestUnknownEngineExit2(t *testing.T) {
	cases := []struct {
		name string
		args string
	}{
		{name: "unknown engine", args: "-engine jit"},
		{name: "misspelled tier", args: "-engine byte-code"},
		{name: "retired closure engine", args: "-engine compile"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmd := osexec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "COMPUNIFORMER_ARGS="+c.args)
			cmd.Stdin = strings.NewReader("") // main reads stdin before flags are validated
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*osexec.ExitError)
			if !ok {
				t.Fatalf("compuniformer %s: err = %v (output %q), want exit error", c.args, err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("compuniformer %s: exit %d (output %q), want 2", c.args, code, out)
			}
			if !strings.Contains(string(out), "unknown engine") {
				t.Fatalf("compuniformer %s: output %q does not mention the unknown engine", c.args, out)
			}
		})
	}
}
