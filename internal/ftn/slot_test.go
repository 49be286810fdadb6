package ftn_test

import (
	"testing"

	"repro/internal/ftn"
	"repro/internal/interp"
)

const slotFixture = `
program slots
  implicit none
  integer, parameter :: n = 4
  integer a(1:n)
  integer i, s
  s = 0
  do i = 1, n
    a(i) = mod(i * 3, n) + s
    if (a(i) > 2) then
      s = s + a(i)
    endif
  enddo
  call bump(s, a(2))
  print *, s, a(1)
end program slots

subroutine bump(x, v)
  integer x
  integer v(1:2)
  x = x + v(1)
end subroutine bump
`

// slots counts the resolved and unresolved name annotations of a file.
func slots(f *ftn.File) (set, unset int) {
	count := func(slot int) {
		if slot != 0 {
			set++
		} else {
			unset++
		}
	}
	for _, u := range f.Units {
		ftn.Inspect(u.Body, func(s ftn.Stmt) bool {
			if do, ok := s.(*ftn.DoStmt); ok {
				count(do.Slot)
			}
			for _, e := range ftn.StmtExprs(s) {
				ftn.WalkExpr(e, func(e ftn.Expr) bool {
					switch e := e.(type) {
					case *ftn.Ident:
						count(e.Slot)
					case *ftn.Ref:
						count(e.Slot)
					}
					return true
				})
			}
			return true
		})
	}
	return set, unset
}

// TestSlotsAreNotSyntax: the slot interp.Load writes on Ident, Ref and
// DoStmt annotates that one loaded tree. Printing, structural equality and
// a parse → print → parse round trip do not see it, and a clone of a loaded
// file is an unresolved tree again.
func TestSlotsAreNotSyntax(t *testing.T) {
	fresh, err := ftn.Parse(slotFixture)
	if err != nil {
		t.Fatal(err)
	}
	if set, _ := slots(fresh); set != 0 {
		t.Fatalf("a freshly parsed file has %d resolved names", set)
	}
	prog, err := interp.Load(slotFixture)
	if err != nil {
		t.Fatal(err)
	}
	loaded := prog.File
	if set, unset := slots(loaded); set == 0 || unset != 0 {
		t.Fatalf("loaded file: %d names resolved, %d not; want all", set, unset)
	}

	if got, want := ftn.Print(loaded), ftn.Print(fresh); got != want {
		t.Errorf("a loaded file prints differently:\n%s\nwant:\n%s", got, want)
	}
	reparsed, err := ftn.Parse(ftn.Print(loaded))
	if err != nil {
		t.Fatalf("reparse of a printed loaded file: %v", err)
	}
	if got, want := ftn.Print(reparsed), ftn.Print(fresh); got != want {
		t.Errorf("parse → print → parse of a loaded file drifted:\n%s\nwant:\n%s", got, want)
	}

	clone := ftn.CloneFile(loaded)
	if set, _ := slots(clone); set != 0 {
		t.Errorf("clone of a loaded file carries %d slots", set)
	}
	if got, want := ftn.Print(clone), ftn.Print(fresh); got != want {
		t.Errorf("clone of a loaded file prints differently")
	}
	if set, unset := slots(loaded); set == 0 || unset != 0 {
		t.Errorf("cloning disturbed the loaded file's slots")
	}

	// Expression by expression, loaded ≡ fresh ≡ clone.
	var a, b, c []ftn.Expr
	collect := func(f *ftn.File, into *[]ftn.Expr) {
		for _, u := range f.Units {
			ftn.Inspect(u.Body, func(s ftn.Stmt) bool {
				*into = append(*into, ftn.StmtExprs(s)...)
				return true
			})
		}
	}
	collect(loaded, &a)
	collect(fresh, &b)
	collect(clone, &c)
	if len(a) == 0 || len(a) != len(b) || len(a) != len(c) {
		t.Fatalf("expression counts differ: %d loaded, %d fresh, %d cloned", len(a), len(b), len(c))
	}
	for i := range a {
		if !ftn.EqualExpr(a[i], b[i]) || !ftn.EqualExpr(a[i], c[i]) {
			t.Errorf("expression %d (%s) differs between loaded, fresh and cloned trees", i, ftn.ExprString(a[i]))
		}
	}
}
