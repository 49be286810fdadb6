package interp

import "fmt"

// storage is the backing memory of a Fortran array (column-major).
type storage struct {
	kind  Kind
	ints  []int64
	reals []float64
}

func newStorage(kind Kind, n int64) *storage {
	s := &storage{kind: kind}
	switch kind {
	case KInt, KBool:
		s.ints = make([]int64, n)
	default:
		s.reals = make([]float64, n)
	}
	return s
}

func (s *storage) len() int64 {
	if s.ints != nil {
		return int64(len(s.ints))
	}
	return int64(len(s.reals))
}

func (s *storage) get(i int64) Value {
	if s.kind == KReal {
		return RealVal(s.reals[i])
	}
	if s.kind == KBool {
		return BoolVal(s.ints[i] != 0)
	}
	return IntVal(s.ints[i])
}

func (s *storage) set(i int64, v Value) {
	switch s.kind {
	case KReal:
		s.reals[i] = v.AsReal()
	case KBool:
		if v.B() {
			s.ints[i] = 1
		} else {
			s.ints[i] = 0
		}
	default:
		s.ints[i] = v.AsInt()
	}
}

// DimBound is one dimension's inclusive bounds; Assumed marks a '*' upper
// bound (dummy arrays sized by the caller).
type DimBound struct {
	Lo, Hi  int64
	Assumed bool
}

// Extent returns the dimension's element count.
func (d DimBound) Extent() int64 { return d.Hi - d.Lo + 1 }

// Array is a (possibly aliased) view of column-major storage: dummy
// arguments share the caller's backing with an element offset (Fortran
// sequence association).
type Array struct {
	Name    string
	Store   *storage
	Offset  int64 // linear element offset into Store
	Dims    []DimBound
	strides []int64
}

// NewArray allocates a fresh array.
func NewArray(name string, kind Kind, dims []DimBound) (*Array, error) {
	n := int64(1)
	for _, d := range dims {
		if d.Assumed {
			return nil, fmt.Errorf("array %s: assumed size in allocation", name)
		}
		if d.Extent() < 0 {
			return nil, fmt.Errorf("array %s: negative extent %d:%d", name, d.Lo, d.Hi)
		}
		n *= d.Extent()
	}
	a := &Array{Name: name, Store: newStorage(kind, n), Dims: dims}
	a.computeStrides()
	return a, nil
}

// View builds a dummy-argument view of backing storage starting at offset,
// with the dummy's declared dims; an assumed-size final dimension absorbs
// the remaining elements.
func View(name string, backing *Array, offset int64, dims []DimBound) (*Array, error) {
	abs := backing.Offset + offset
	if abs < 0 || abs > backing.Store.len() {
		return nil, fmt.Errorf("array %s: view offset %d out of range", name, abs)
	}
	a := &Array{Name: name, Store: backing.Store, Offset: abs, Dims: dims}
	// Resolve an assumed-size last dimension against the remaining length.
	if n := len(dims); n > 0 && dims[n-1].Assumed {
		inner := int64(1)
		for _, d := range dims[:n-1] {
			inner *= d.Extent()
		}
		remain := backing.Store.len() - abs
		if inner <= 0 {
			inner = 1
		}
		a.Dims = append([]DimBound(nil), dims...)
		a.Dims[n-1] = DimBound{Lo: dims[n-1].Lo, Hi: dims[n-1].Lo + remain/inner - 1}
	}
	a.computeStrides()
	return a, nil
}

func (a *Array) computeStrides() {
	a.strides = make([]int64, len(a.Dims))
	s := int64(1)
	for d := 0; d < len(a.Dims); d++ {
		a.strides[d] = s
		s *= a.Dims[d].Extent()
	}
}

// Size returns the number of elements the view covers.
func (a *Array) Size() int64 {
	n := int64(1)
	for _, d := range a.Dims {
		n *= d.Extent()
	}
	return n
}

// Linear converts subscripts to a 0-based linear offset within the view.
func (a *Array) Linear(subs []int64) (int64, error) {
	if len(subs) != len(a.Dims) {
		// Sequence-association escape: a single subscript into a
		// multi-dimensional array addresses it linearly (F77 idiom used by
		// MPI buffer arguments).
		if len(subs) == 1 {
			i := subs[0] - a.Dims[0].Lo
			if i < 0 || a.Offset+i >= a.Store.len() {
				return 0, fmt.Errorf("array %s: linear subscript %d out of range", a.Name, subs[0])
			}
			return i, nil
		}
		return 0, fmt.Errorf("array %s: rank %d reference to rank-%d array", a.Name, len(subs), len(a.Dims))
	}
	var off int64
	for d, s := range subs {
		if s < a.Dims[d].Lo || s > a.Dims[d].Hi {
			return 0, fmt.Errorf("array %s: subscript %d of dimension %d out of bounds %d:%d",
				a.Name, s, d+1, a.Dims[d].Lo, a.Dims[d].Hi)
		}
		off += (s - a.Dims[d].Lo) * a.strides[d]
	}
	return off, nil
}

// Get reads the element at the given subscripts.
func (a *Array) Get(subs []int64) (Value, error) {
	off, err := a.Linear(subs)
	if err != nil {
		return Value{}, err
	}
	return a.Store.get(a.Offset + off), nil
}

// Set writes the element at the given subscripts.
func (a *Array) Set(subs []int64, v Value) error {
	off, err := a.Linear(subs)
	if err != nil {
		return err
	}
	a.Store.set(a.Offset+off, v)
	return nil
}

// InWindow reports whether the count elements from linear offset off
// (0-based within the view) lie inside the array's storage. A negative
// count is an empty window.
func (a *Array) InWindow(off, count int64) bool {
	start, n := a.Offset+off, a.Store.len()
	return start >= 0 && start <= n && count <= n-start
}

// CopyOut snapshots count elements starting at linear offset off (0-based
// within the view) — the payload of a send.
func (a *Array) CopyOut(off, count int64) (interface{}, error) {
	start := a.Offset + off
	if !a.InWindow(off, count) {
		return nil, fmt.Errorf("array %s: send window [%d,%d) out of range", a.Name, off, off+count)
	}
	if a.Store.kind == KReal {
		out := make([]float64, count)
		copy(out, a.Store.reals[start:start+count])
		return out, nil
	}
	out := make([]int64, count)
	copy(out, a.Store.ints[start:start+count])
	return out, nil
}

// CopyIn stores a received payload at linear offset off within the view.
func (a *Array) CopyIn(off int64, payload interface{}) error {
	start := a.Offset + off
	switch p := payload.(type) {
	case []int64:
		if start+int64(len(p)) > a.Store.len() {
			return fmt.Errorf("array %s: recv window out of range", a.Name)
		}
		if a.Store.kind == KReal {
			for i, v := range p {
				a.Store.reals[start+int64(i)] = float64(v)
			}
			return nil
		}
		copy(a.Store.ints[start:], p)
	case []float64:
		if start+int64(len(p)) > a.Store.len() {
			return fmt.Errorf("array %s: recv window out of range", a.Name)
		}
		if a.Store.kind == KReal {
			copy(a.Store.reals[start:], p)
			return nil
		}
		for i, v := range p {
			a.Store.ints[start+int64(i)] = int64(v)
		}
	case nil:
		return fmt.Errorf("array %s: nil payload", a.Name)
	default:
		return fmt.Errorf("array %s: unsupported payload %T", a.Name, payload)
	}
	return nil
}

// Idx1 computes the linear offset of a single-subscript reference without
// a subscript slice: the rank-1 access, or the F77 sequence-association
// escape into a multi-dimensional array. Bounds rules and error wording
// match Linear exactly; the compiled engine uses these fixed-rank forms on
// its hot path.
func (a *Array) Idx1(s int64) (int64, error) {
	if len(a.Dims) != 1 {
		i := s - a.Dims[0].Lo
		if i < 0 || a.Offset+i >= a.Store.len() {
			return 0, fmt.Errorf("array %s: linear subscript %d out of range", a.Name, s)
		}
		return i, nil
	}
	if s < a.Dims[0].Lo || s > a.Dims[0].Hi {
		return 0, fmt.Errorf("array %s: subscript %d of dimension 1 out of bounds %d:%d",
			a.Name, s, a.Dims[0].Lo, a.Dims[0].Hi)
	}
	return (s - a.Dims[0].Lo) * a.strides[0], nil
}

// Idx2 computes the linear offset of a rank-2 reference (see Idx1).
func (a *Array) Idx2(s1, s2 int64) (int64, error) {
	if len(a.Dims) != 2 {
		return 0, fmt.Errorf("array %s: rank 2 reference to rank-%d array", a.Name, len(a.Dims))
	}
	if s1 < a.Dims[0].Lo || s1 > a.Dims[0].Hi {
		return 0, fmt.Errorf("array %s: subscript %d of dimension 1 out of bounds %d:%d",
			a.Name, s1, a.Dims[0].Lo, a.Dims[0].Hi)
	}
	if s2 < a.Dims[1].Lo || s2 > a.Dims[1].Hi {
		return 0, fmt.Errorf("array %s: subscript %d of dimension 2 out of bounds %d:%d",
			a.Name, s2, a.Dims[1].Lo, a.Dims[1].Hi)
	}
	return (s1-a.Dims[0].Lo)*a.strides[0] + (s2-a.Dims[1].Lo)*a.strides[1], nil
}

// Idx3 computes the linear offset of a rank-3 reference (see Idx1).
func (a *Array) Idx3(s1, s2, s3 int64) (int64, error) {
	if len(a.Dims) != 3 {
		return 0, fmt.Errorf("array %s: rank 3 reference to rank-%d array", a.Name, len(a.Dims))
	}
	if s1 < a.Dims[0].Lo || s1 > a.Dims[0].Hi {
		return 0, fmt.Errorf("array %s: subscript %d of dimension 1 out of bounds %d:%d",
			a.Name, s1, a.Dims[0].Lo, a.Dims[0].Hi)
	}
	if s2 < a.Dims[1].Lo || s2 > a.Dims[1].Hi {
		return 0, fmt.Errorf("array %s: subscript %d of dimension 2 out of bounds %d:%d",
			a.Name, s2, a.Dims[1].Lo, a.Dims[1].Hi)
	}
	if s3 < a.Dims[2].Lo || s3 > a.Dims[2].Hi {
		return 0, fmt.Errorf("array %s: subscript %d of dimension 3 out of bounds %d:%d",
			a.Name, s3, a.Dims[2].Lo, a.Dims[2].Hi)
	}
	return (s1-a.Dims[0].Lo)*a.strides[0] + (s2-a.Dims[1].Lo)*a.strides[1] +
		(s3-a.Dims[2].Lo)*a.strides[2], nil
}

// RawGet reads the element at linear offset off (0-based within the view)
// without bounds-adjusting subscripts — the raw access MPI_WAITALL uses to
// walk a request-handle array. Exported for the compiled engine.
func (a *Array) RawGet(off int64) Value { return a.Store.get(a.Offset + off) }

// RawSet writes the element at linear offset off within the view (see
// RawGet).
func (a *Array) RawSet(off int64, v Value) { a.Store.set(a.Offset+off, v) }

// IntAt, SetIntAt, RealAt and SetRealAt address the backing storage at
// linear offset off within the view with no kind dispatch: integer and
// logical arrays live in the int storage (logicals as 0/1), real arrays in
// the real storage. The bytecode tier's register machine moves elements
// through them without building a Value; the caller picks the pair that
// matches Kind().
func (a *Array) IntAt(off int64) int64 { return a.Store.ints[a.Offset+off] }

// SetIntAt writes an int-storage element (see IntAt).
func (a *Array) SetIntAt(off, v int64) { a.Store.ints[a.Offset+off] = v }

// RealAt reads a real-storage element (see IntAt).
func (a *Array) RealAt(off int64) float64 { return a.Store.reals[a.Offset+off] }

// SetRealAt writes a real-storage element (see IntAt).
func (a *Array) SetRealAt(off int64, v float64) { a.Store.reals[a.Offset+off] = v }

// Ints returns an int-storage view's elements from linear offset 0 on, and
// Stride the element stride of dimension d: the bytecode tier's strip
// executor resolves a whole strip of subscripts against Dims itself and
// then moves the elements in one loop.
func (a *Array) Ints() []int64 { return a.Store.ints[a.Offset:] }

// Stride returns the element stride of dimension d (see Ints).
func (a *Array) Stride(d int) int64 { return a.strides[d] }

// Kind returns the element kind of the backing storage.
func (a *Array) Kind() Kind { return a.Store.kind }

// Data returns the whole view's contents as raw data ([]float64 for a real
// array, []int64 otherwise) without copying: the slice is the array's own
// storage, capped at the view's length.
func (a *Array) Data() interface{} {
	n := a.Offset + a.Size()
	if a.Store.kind == KReal {
		return a.Store.reals[a.Offset:n:n]
	}
	return a.Store.ints[a.Offset:n:n]
}

// Snapshot copies the whole view's contents as raw data, for equivalence
// checks of an array that can still change.
func (a *Array) Snapshot() interface{} {
	if data, ok := a.Data().([]float64); ok {
		out := make([]float64, len(data))
		copy(out, data)
		return out
	}
	data := a.Data().([]int64)
	out := make([]int64, len(data))
	copy(out, data)
	return out
}
