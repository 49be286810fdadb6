package ftn_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ftn"
	"repro/internal/workload"
)

// FuzzParse holds the front end to two rules on any input: parsing never
// panics, and a source that parses prints to a source that parses and
// prints the same — the printer writes only what the lexer reads back, so an
// accepted program's variants can always be read again. Seeds: the corpus,
// the paper figures under testdata/, and scenario 0 renamed with the byte
// 0xF2, which the lexer once took for a letter the printer could not write.
func FuzzParse(f *testing.F) {
	scenarios := workload.GenerateScenarios(workload.GenOptions{})
	for _, sc := range scenarios {
		f.Add(sc.Source)
	}
	f.Add(strings.ReplaceAll(scenarios[0].Source, "program direct", "program d\xf2rect"))
	figures, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.f90"))
	if err != nil || len(figures) == 0 {
		f.Fatalf("paper figures: %v (%d found)", err, len(figures))
	}
	for _, name := range figures {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := ftn.Parse(src)
		if err != nil {
			return
		}
		once := ftn.Print(file)
		again, err := ftn.Parse(once)
		if err != nil {
			t.Fatalf("printed source does not parse: %v\n%s", err, once)
		}
		if twice := ftn.Print(again); twice != once {
			t.Fatalf("parse → print → parse is no fixpoint:\n%s\nvs\n%s", once, twice)
		}
	})
}
