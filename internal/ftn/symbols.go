package ftn

// Symbol describes one declared name within a unit.
type Symbol struct {
	Name      string
	Type      TypeSpec
	Dims      []Dim // nil for scalars
	Parameter bool
	Init      Expr // parameter value, nil otherwise
	Intent    string
	IsParam   bool // dummy argument of the unit
	Decl      *Decl
	Entity    *Entity
}

// IsArray reports whether the symbol has array dimensions.
func (s *Symbol) IsArray() bool { return len(s.Dims) > 0 }

// SymbolTable maps lower-case names to symbols for one unit.
type SymbolTable struct {
	unit *Unit
	syms map[string]*Symbol
}

// Symbols builds the symbol table for unit u.
func Symbols(u *Unit) *SymbolTable {
	st := &SymbolTable{unit: u, syms: make(map[string]*Symbol)}
	dummy := make(map[string]bool, len(u.Params))
	for _, p := range u.Params {
		dummy[p] = true
	}
	for _, d := range u.Decls {
		for _, e := range d.Entities {
			st.syms[e.Name] = &Symbol{
				Name:      e.Name,
				Type:      d.Type,
				Dims:      d.DimsOf(e),
				Parameter: d.Parameter,
				Init:      e.Init,
				Intent:    d.Intent,
				IsParam:   dummy[e.Name],
				Decl:      d,
				Entity:    e,
			}
		}
	}
	return st
}

// Lookup returns the symbol for name, or nil.
func (st *SymbolTable) Lookup(name string) *Symbol { return st.syms[name] }

// Names returns all declared names (unordered).
func (st *SymbolTable) Names() []string {
	out := make([]string, 0, len(st.syms))
	for n := range st.syms {
		out = append(out, n)
	}
	return out
}

// FreshNamer generates identifiers that do not collide with any name
// declared in a unit (nor with names it has already handed out). The
// transformation uses it for the variables it introduces.
type FreshNamer struct {
	base  *FreshNamer // the namer this one was forked from; never written through
	taken map[string]bool
}

// NewFreshNamer seeds the namer with every name visible in u.
func NewFreshNamer(u *Unit) *FreshNamer {
	fn := &FreshNamer{taken: make(map[string]bool)}
	for _, p := range u.Params {
		fn.taken[p] = true
	}
	for _, d := range u.Decls {
		for _, e := range d.Entities {
			fn.taken[e.Name] = true
		}
	}
	// Also avoid names used without declaration (implicit typing).
	Inspect(u.Body, func(s Stmt) bool {
		for _, e := range StmtExprs(s) {
			for n := range IdentsIn(e) {
				fn.taken[n] = true
			}
		}
		if do, ok := s.(*DoStmt); ok {
			fn.taken[do.Var] = true
		}
		return true
	})
	return fn
}

// Fork returns a namer that avoids every name fn has taken and keeps the
// names it hands out to itself. A unit is scanned once and forked for each
// use; forks of one namer may be used concurrently while nothing takes a
// name in it.
func (fn *FreshNamer) Fork() *FreshNamer {
	return &FreshNamer{base: fn, taken: make(map[string]bool)}
}

// Take reserves name, as a declaration added to the unit does.
func (fn *FreshNamer) Take(name string) { fn.taken[name] = true }

func (fn *FreshNamer) has(name string) bool {
	for n := fn; n != nil; n = n.base {
		if n.taken[name] {
			return true
		}
	}
	return false
}

// Fresh returns base if free, else base2, base3, ...; the result is
// reserved so subsequent calls cannot return it again.
func (fn *FreshNamer) Fresh(base string) string {
	if !fn.has(base) {
		fn.taken[base] = true
		return base
	}
	for i := 2; ; i++ {
		name := base + itoa(i)
		if !fn.has(name) {
			fn.taken[name] = true
			return name
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[n:])
}
