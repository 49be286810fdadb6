package interp

import (
	"fmt"

	"repro/internal/ftn"
	"repro/internal/mpi"
)

// This file is the one Fortran→MPI binding every engine executes. Each
// routine's arity, evaluation order, count/datatype/peer/window validation,
// request handling and ierr store is written here once, driven by the
// signature table; an engine contributes only MPIArgs — how to evaluate,
// look up as an array, or store into the i-th actual argument of a call.

// ArgRole says what the binding does with one actual argument (a bit set:
// mpi_wait both reads and clears its request handle).
type ArgRole uint8

const (
	ArgValue  ArgRole = 1 << iota // evaluated to an integer
	ArgBuffer                     // resolved to (array, linear offset)
	ArgStore                      // assigned by the binding
	ArgDType                      // with ArgValue: the datatype closing a (count, datatype) pair
	ArgInto                       // with ArgBuffer: a receive's, which the transfer writes
	ArgRead                       // with ArgBuffer: the binding reads its elements itself

	val = ArgValue
	buf = ArgBuffer
	sto = ArgStore
	dty = ArgValue | ArgDType
	rcv = ArgBuffer | ArgInto
	ign = ArgRole(0) // communicators, statuses
)

type mpiOp uint8

const (
	opNone mpiOp = iota // mpi_init, mpi_finalize, flush: no runtime effect
	opRank
	opSize
	opBarrier
	opIsend
	opIrecv
	opSend
	opRecv
	opWait
	opWaitall
	opAlltoall
)

// MPIRoutine is one row of the signature table.
type MPIRoutine struct {
	Name  string
	Roles []ArgRole // per argument; a non-empty list ends in ierr
	op    mpiOp
	// lax routines accept any argument count: a call off the signature
	// still takes effect but touches none of its arguments.
	lax bool
}

var mpiRoutines = [...]MPIRoutine{
	{"mpi_init", []ArgRole{sto}, opNone, true},
	{"mpi_finalize", []ArgRole{sto}, opNone, true},
	{"flush", nil, opNone, true}, // test helper: a no-op sink
	{"mpi_comm_rank", []ArgRole{ign, sto, sto}, opRank, false},
	{"mpi_comm_size", []ArgRole{ign, sto, sto}, opSize, false},
	{"mpi_barrier", []ArgRole{ign, sto}, opBarrier, true},
	// (buf, count, dtype, peer, tag, comm, request, ierr)
	{"mpi_isend", []ArgRole{buf, val, dty, val, val, ign, sto, sto}, opIsend, false},
	{"mpi_irecv", []ArgRole{rcv, val, dty, val, val, ign, sto, sto}, opIrecv, false},
	// (buf, count, dtype, peer, tag, comm[, status], ierr)
	{"mpi_send", []ArgRole{buf, val, dty, val, val, ign, sto}, opSend, false},
	{"mpi_recv", []ArgRole{rcv, val, dty, val, val, ign, ign, sto}, opRecv, false},
	// (request, status, ierr)
	{"mpi_wait", []ArgRole{val | sto, ign, sto}, opWait, false},
	// (count, requests, statuses, ierr)
	{"mpi_waitall", []ArgRole{val, buf | ArgRead, ign, sto}, opWaitall, false},
	// (sbuf, scount, stype, rbuf, rcount, rtype, comm, ierr)
	{"mpi_alltoall", []ArgRole{buf, val, dty, rcv, val, dty, ign, sto}, opAlltoall, false},
}

// MPIRoutines lists the signature table (differential tests walk it).
func MPIRoutines() []MPIRoutine { return mpiRoutines[:] }

// LookupMPI returns the bound routine of that name, or nil for a user
// subroutine.
func LookupMPI(name string) *MPIRoutine {
	for i := range mpiRoutines {
		if mpiRoutines[i].Name == name {
			return &mpiRoutines[i]
		}
	}
	return nil
}

// MPIArgs is an engine's view of one call site's actual arguments.
type MPIArgs interface {
	// Value evaluates argument i.
	Value(i int) (Value, error)
	// Buffer looks argument i (an Ident or a Ref) up as an array: the array
	// its name holds in the current frame, or nil when it holds none, and
	// for a Ref over an array the evaluated subscripts.
	Buffer(i int) (*Array, []int64, error)
	// Store assigns v to argument i.
	Store(i int, v Value) error
}

// MPI is one rank's binding state, and the rank's mpi.Binding: a payload's
// buffer is an *Array. The request handles the program sees are the rank's
// (mpi.Rank.Hold).
type MPI struct {
	Rank *mpi.Rank
	// cbErr is the first failure to read or write a payload. The binding's
	// Read and Write run inside engine events, on the goroutine that called
	// the simulation, so they record instead of panicking; the rank reports
	// the error from the call that next completes a request (or at run end,
	// see RunRanks). One field rather than one per request keeps a posted
	// message as cheap as before.
	cbErr error
	// Trace, when non-nil, records the rank's skeleton (skeleton.go): the
	// engine that set it reports charges, Call each operation.
	Trace *RankTrace
}

// Read implements mpi.Binding: it snapshots a send's elements.
func (b *MPI) Read(p mpi.Payload, words []uint64) bool {
	err := p.Buf.(*Array).CopyOut(p.Off, words)
	b.note(err)
	return err == nil
}

// Write implements mpi.Binding: it stores a received payload.
func (b *MPI) Write(p, from mpi.Payload, words []uint64) {
	a := p.Buf.(*Array)
	if words == nil {
		b.note(fmt.Errorf("array %s: nil payload", a.Name))
		return
	}
	b.note(a.CopyIn(p.Off, from.Buf.(*Array).Kind() == KReal, words))
}

// payload is the data of count elements at arr+off: none for an array
// without elements (NewShape).
func payload(arr *Array, off, count int64) mpi.Payload {
	if arr.Store.shape() {
		return mpi.Payload{}
	}
	return mpi.Payload{Buf: arr, Off: off, Count: count}
}

// trace records operation e when the run is being recorded.
func (b *MPI) trace(e skelEntry) {
	if b.Trace != nil {
		b.Trace.record(e)
	}
}

// note records the failure to read or write a payload.
func (b *MPI) note(err error) {
	if err != nil && b.cbErr == nil {
		b.cbErr = err
	}
}

// failed surfaces a recorded callback failure at call s.
func (b *MPI) failed(s *ftn.CallStmt) error {
	if b.cbErr != nil {
		return rte(s.Pos(), "%v", b.cbErr)
	}
	return nil
}

// Call executes MPI call statement s, whose routine is r, over the engine's
// argument accessors.
func (b *MPI) Call(r *MPIRoutine, s *ftn.CallStmt, a MPIArgs) error {
	n := len(r.Roles)
	if len(s.Args) != n {
		if !r.lax {
			return rte(s.Pos(), "%s needs %d arguments", s.Name, n)
		}
		n = 0
	}
	// Inputs are evaluated in argument order, each (count, datatype) pair
	// validated as soon as it is complete. num holds a value argument's
	// integer, a buffer's linear offset, a datatype's element size (8: the
	// longest signature).
	var arr [8]*Array
	var num [8]int64
	for i := 0; i < n; i++ {
		var err error
		switch role := r.Roles[i]; {
		case role&ArgBuffer != 0:
			arr[i], num[i], err = buffer(s, a, i)
		case role&ArgValue != 0:
			var v Value
			if v, err = a.Value(i); err != nil {
				break
			}
			num[i] = v.AsInt()
			if role&ArgDType == 0 {
				break
			}
			var ok bool
			if num[i], ok = dtypeBytes(num[i]); !ok {
				err = rte(s.Args[i].Pos(), "unknown MPI datatype %d", v.AsInt())
			} else if num[i-1] < 0 {
				err = rte(s.Args[i-1].Pos(), "negative MPI count %d", num[i-1])
			}
		}
		if err != nil {
			return err
		}
	}
	var err error
	switch r.op {
	case opRank:
		err = a.Store(1, IntVal(int64(b.Rank.Me())))
	case opSize:
		err = a.Store(1, IntVal(int64(b.Rank.NP())))
	case opBarrier:
		b.trace(skelEntry{op: opBarrier})
		b.Rank.Barrier()
	case opIsend, opIrecv, opSend, opRecv:
		var req *mpi.Request
		if req, err = b.post(r.op, s, arr[0], num[0], num[1], num[2], int(num[3]), int(num[4])); err != nil {
			break
		}
		b.trace(skelEntry{op: r.op, peer: int32(num[3]), tag: num[4], bytes: num[1] * num[2]})
		if r.op == opSend || r.op == opRecv {
			b.Rank.Wait(req)
			err = b.failed(s)
			break
		}
		if b.Trace != nil {
			b.Trace.mark(s, arr[0], num[0], num[1], r.op == opIrecv)
		}
		err = a.Store(6, IntVal(b.Rank.Hold(req)))
	case opWait:
		if err = b.wait(num[0], s); err == nil {
			err = a.Store(0, IntVal(0)) // invalidate the handle
		}
	case opWaitall:
		reqs, off, count := arr[1], num[1], num[0]
		if !reqs.InWindow(off, count) {
			return windowErr(s.Args[1], reqs, off, count)
		}
		for i := off; i < off+count; i++ {
			if err = b.wait(reqs.RawGet(i).AsInt(), s); err != nil {
				break
			}
			reqs.RawSet(i, IntVal(0))
		}
	case opAlltoall:
		// §3.5 partition semantics: the send array is NP consecutive blocks
		// of scount elements, block r going to rank r.
		sArr, sOff, sCount, rArr, rOff, rCount := arr[0], num[0], num[1], arr[3], num[3], num[4]
		b.trace(skelEntry{op: opAlltoall, bytes: sCount * num[2]})
		if b.Trace != nil {
			np := int64(b.Rank.NP())
			b.Trace.blocking(s, sArr, sOff, np*sCount, false)
			b.Trace.blocking(s, rArr, rOff, np*rCount, true)
		}
		b.Rank.AlltoallPayload(sCount*num[2], payload(sArr, sOff, sCount), payload(rArr, rOff, rCount))
		err = b.failed(s)
	}
	if err != nil || n == 0 {
		return err
	}
	return a.Store(n-1, IntVal(0)) // ierr
}

// buffer resolves buffer argument i to (array, linear offset in its view).
func buffer(s *ftn.CallStmt, a MPIArgs, i int) (*Array, int64, error) {
	e := s.Args[i]
	name, isRef := "", false
	switch e := e.(type) {
	case *ftn.Ident:
		name = e.Name
	case *ftn.Ref:
		name, isRef = e.Name, true
	default:
		return nil, 0, rte(e.Pos(), "bad MPI buffer argument")
	}
	arr, subs, err := a.Buffer(i)
	if err == nil && arr == nil {
		err = rte(e.Pos(), "MPI buffer %s is not an array", name)
	}
	if err != nil || !isRef {
		return arr, 0, err
	}
	off, err := arr.Linear(subs)
	if err != nil {
		return nil, 0, rte(e.Pos(), "%v", err)
	}
	return arr, off, nil
}

func windowErr(arg ftn.Expr, a *Array, off, count int64) error {
	return rte(arg.Pos(), "array %s: MPI window [%d,%d) out of range", a.Name, off, off+count)
}

// post starts one point-to-point transfer of count elements at arr+off.
// Peer, window and tag are validated before anything is posted, so a bad
// call is a positioned error on this rank instead of a fault inside the
// transfer. A send's tag is non-negative; a receive's may also be -1, any
// tag (MPI_ANY_TAG).
func (b *MPI) post(op mpiOp, s *ftn.CallStmt, arr *Array, off, count, elemBytes int64, peer, tag int) (*mpi.Request, error) {
	if peer < 0 || peer >= b.Rank.NP() {
		return nil, rte(s.Args[3].Pos(), "MPI peer rank %d outside 0..%d", peer, b.Rank.NP()-1)
	}
	if !arr.InWindow(off, count) {
		return nil, windowErr(s.Args[0], arr, off, count)
	}
	send := op == opIsend || op == opSend
	if send && tag < 0 {
		return nil, rte(s.Args[4].Pos(), "negative MPI send tag %d", tag)
	}
	if tag < mpi.AnyTag {
		return nil, rte(s.Args[4].Pos(), "MPI receive tag %d below -1 (any tag)", tag)
	}
	if b.Trace != nil && (op == opSend || op == opRecv) {
		b.Trace.blocking(s, arr, off, count, op == opRecv)
	}
	if send {
		return b.Rank.IsendPayload(peer, tag, count*elemBytes, payload(arr, off, count)), nil
	}
	return b.Rank.IrecvPayload(peer, tag, count*elemBytes, payload(arr, off, count)), nil
}

// wait completes request handle h (0 is the null request).
func (b *MPI) wait(h int64, s *ftn.CallStmt) error {
	if h == 0 {
		return nil
	}
	req, ok := b.Rank.Take(h)
	if !ok {
		return rte(s.Pos(), "invalid MPI request handle %d", h)
	}
	if req == nil {
		return nil // already waited
	}
	if b.Trace != nil {
		b.Trace.unmark(int32(h))
	}
	b.trace(skelEntry{op: opWait, slot: int32(h)})
	b.Rank.Wait(req)
	return b.failed(s)
}

// execCall dispatches CALL statements: MPI bindings first, then user
// subroutines.
func (m *machine) execCall(fr *frame, s *ftn.CallStmt) error {
	if r := LookupMPI(s.Name); r != nil {
		m.callFr, m.callStmt = fr, s
		return m.mpi.Call(r, s, m)
	}
	return m.callUser(fr, s)
}

// The walker's MPIArgs reads the AST of the call being executed (MPI calls
// do not nest, so one slot on the machine suffices).

func (m *machine) Value(i int) (Value, error) { return m.evalExpr(m.callFr, m.callStmt.Args[i]) }

func (m *machine) Store(i int, v Value) error { return m.store(m.callFr, m.callStmt.Args[i], v) }

func (m *machine) Buffer(i int) (*Array, []int64, error) {
	switch e := m.callStmt.Args[i].(type) {
	case *ftn.Ident:
		return m.callFr.b[e.Slot].arr, nil, nil
	case *ftn.Ref:
		if a := m.callFr.b[e.Slot].arr; a != nil {
			// The binding consumes the subscripts before it asks for anything
			// else, so one scratch slice per machine serves every call.
			if cap(m.subs) < len(e.Args) {
				m.subs = make([]int64, len(e.Args))
			}
			subs := m.subs[:len(e.Args)]
			return a, subs, m.evalSubs(m.callFr, e.Args, subs)
		}
	}
	return nil, nil, nil
}

// callUser invokes a user subroutine with Fortran reference semantics.
func (m *machine) callUser(fr *frame, s *ftn.CallStmt) error {
	sub := m.prog.subroutine(s.Name)
	if sub == nil {
		return rte(s.Pos(), "unknown subroutine %s", s.Name)
	}
	if len(s.Args) != len(sub.params) {
		return rte(s.Pos(), "call to %s with %d args, wants %d", s.Name, len(s.Args), len(sub.params))
	}
	m.charge(chCallOver)
	args := make([]actual, len(s.Args))
	for i, arg := range s.Args {
		switch a := arg.(type) {
		case *ftn.Ident:
			if arr := fr.b[a.Slot].arr; arr != nil {
				args[i].arr = arr
				continue
			}
			p, err := m.lookupScalar(fr, a.Slot, a.Pos())
			if err != nil {
				return err
			}
			args[i].scal = p // alias: writes are visible to the caller
			continue
		case *ftn.Ref:
			if arr := fr.b[a.Slot].arr; arr != nil {
				var buf [3]int64
				subs := subsFor(&buf, len(a.Args))
				if err := m.evalSubs(fr, a.Args, subs); err != nil {
					return err
				}
				off, err := arr.Linear(subs)
				if err != nil {
					return err
				}
				// Sequence association: the callee's dummy views the
				// caller's storage from this element on; the callee's own
				// declaration re-shapes it in newFrame.
				view, err := View(sub.unit.Params[i], arr, off, []DimBound{{Lo: 1, Assumed: true}})
				if err != nil {
					return rte(a.Pos(), "%v", err)
				}
				args[i].arr = view
				continue
			}
		}
		// Any other expression binds a temporary the callee may write.
		v, err := m.evalExpr(fr, arg)
		if err != nil {
			return err
		}
		args[i].scal = &v
	}
	nfr, err := m.newFrame(sub, args)
	if err != nil {
		return err
	}
	err = m.execStmts(nfr, sub.unit.Body)
	if err == errReturn {
		err = nil
	}
	return err
}
