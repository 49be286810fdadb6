package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

var fixtures = []string{
	"figure2_before.f90", "figure2_after.f90",
	"figure3_before.f90", "figure3_after.f90",
	"figure4_commcode.f90",
}

func golden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCodeFiguresMatchGoldens: what -fig 2, 3 and 4 print is the committed
// golden fixtures, byte for byte, between the figure's own captions.
func TestCodeFiguresMatchGoldens(t *testing.T) {
	want := map[string][]string{"2": fixtures[0:2], "3": fixtures[2:4], "4": fixtures[4:5]}
	for _, c := range codeFigures() {
		var out bytes.Buffer
		if err := c.print(&out); err != nil {
			t.Fatalf("-fig %s: %v", c.name, err)
		}
		rest := out.Bytes()
		for _, name := range want[c.name] {
			// In order: each fixture must follow the previous one's text.
			i := bytes.Index(rest, golden(t, name))
			if i < 0 {
				t.Fatalf("-fig %s output does not contain %s byte for byte:\n%s", c.name, name, out.String())
			}
			rest = rest[i+len(golden(t, name)):]
		}
	}
}

// TestDirRegeneratesGoldens: -dir writes exactly the committed fixtures, so
// regenerating them is idempotent and a codegen change is a testdata diff.
func TestDirRegeneratesGoldens(t *testing.T) {
	dir := t.TempDir()
	if err := writeFixtures(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range fixtures {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden(t, name)) {
			t.Errorf("%s: -dir output differs from testdata/%s", name, name)
		}
	}
}
