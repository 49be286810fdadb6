// Package analysis implements the program analyses of the paper's §3.1–§3.2
// and §3.5: locating transformation opportunities (the MPI_ALLTOALL call C,
// the send/receive arrays As/Ar, and the finalizing loop nest ℓ), deciding
// the compute-copy pattern (direct vs. indirect), recognizing the redundant
// copy loop ℓcp, and determining the node loop position.
//
// A site is located per file and proved once per program: FindOpportunities
// re-walks whatever file it is given (a transformer clone has its own nodes),
// but the dependence and slab-mapping proofs about what it located are kept
// in the caller's ProofMemo when Options carries one.
package analysis

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/dep"
	"repro/internal/ftn"
)

// Pattern classifies how values reach the send array (§3.2).
type Pattern int

// Compute-copy patterns.
const (
	PatternUnknown  Pattern = iota
	PatternDirect           // As assigned directly; RHS not an array reference
	PatternIndirect         // As filled from a temporary At via a copy loop ℓcp
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case PatternDirect:
		return "direct"
	case PatternIndirect:
		return "indirect"
	}
	return "unknown"
}

// Oracle answers the semi-automatic questions of §3.1: whether a procedure
// with unavailable source writes through an array argument.
type Oracle interface {
	// ProcedureWrites reports whether procedure proc may write through the
	// argument holding array. answered=false means "no answer" (fully
	// automatic mode), forcing the conservative paths of the paper.
	ProcedureWrites(proc, array string) (writes, answered bool)
}

// MapOracle is an Oracle backed by explicit "proc:array" -> bool answers.
type MapOracle map[string]bool

// ProcedureWrites implements Oracle.
func (m MapOracle) ProcedureWrites(proc, array string) (bool, bool) {
	v, ok := m[proc+":"+array]
	return v, ok
}

// NoOracle answers nothing (fully automatic mode).
type NoOracle struct{}

// ProcedureWrites implements Oracle.
func (NoOracle) ProcedureWrites(string, string) (bool, bool) { return false, false }

// AlltoallCall is the parsed argument structure of C.
// MPI_ALLTOALL(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype,
// comm, ierror).
type AlltoallCall struct {
	Stmt      *ftn.CallStmt
	As        string // send array name (arg 1)
	Ar        string // receive array name (arg 4)
	SendCount ftn.Expr
	SendType  ftn.Expr
	RecvCount ftn.Expr
	RecvType  ftn.Expr
	Comm      ftn.Expr
	Ierr      ftn.Expr
}

// CopyLoop describes a recognized ℓcp (§3.4): the loop copying the
// temporary At into As, the procedure call that fills At, and the verified
// mapping from At elements to As slabs.
type CopyLoop struct {
	Loop      *ftn.DoStmt // ℓcp itself
	LoopIndex int         // position of ℓcp within ℓ's body
	At        string      // source temporary array
	AtDims    []access.Triplet
	// Count is the number of elements copied per execution of ℓcp; the
	// verified mapping is: At element j lands at linear As offset
	// (iy - iyLo)·Count + (j - atLo), i.e. consecutive whole slabs.
	Count int64
	// Call is the procedure call that fills At (e.g. "call p(..., at)").
	Call       *ftn.CallStmt
	CallIndex  int // position of the call within ℓ's body
	CallArgPos int // position of At among the call's arguments
}

// NodeLoopCase describes where the node loop sits relative to the tiled
// loop (§3.5).
type NodeLoopCase int

// Node loop placements.
const (
	NodeLoopInner     NodeLoopCase = iota // node loop inside the tiled loop: Fig. 4 all-peers exchange
	NodeLoopOutermost                     // node loop is the tiled loop: interchange or subset sends
	NodeLoopAbsent                        // As's last dimension not traversed by ℓ (not transformable)
)

// String names the case.
func (c NodeLoopCase) String() string {
	switch c {
	case NodeLoopInner:
		return "inner"
	case NodeLoopOutermost:
		return "outermost"
	}
	return "absent"
}

// Opportunity is one transformable site: the call C, the loop nest ℓ, and
// everything the transformation needs to know about them.
type Opportunity struct {
	Unit *ftn.Unit
	Call AlltoallCall

	// Parent is the statement list containing both ℓ and C; LIndex and
	// CallIndex are their positions within it.
	Parent    *[]ftn.Stmt
	LIndex    int
	CallIndex int

	L *ftn.DoStmt // ℓ

	Pattern Pattern

	// Direct-pattern facts.
	Nest      *dep.NestInfo
	WriteRefs []*dep.Ref // affine write refs to As inside ℓ
	SafeRefs  []*dep.Ref // the §3.3 safe references among WriteRefs

	// Indirect-pattern facts.
	CopyLoop *CopyLoop

	// Node loop analysis.
	NodeCase        NodeLoopCase
	NodeLoopLevel   int  // level in ℓ's perfect chain that traverses As's last dim
	InterchangeWith int  // inner level to interchange with (valid when legal)
	InterchangeOK   bool // interchange legality when NodeLoopOutermost
	// InterchangeBlockElems estimates the contiguous elements per message
	// the post-interchange (Fig. 4) exchange would send, excluding the
	// factor K: the product of the extents of the array dimensions before
	// the one the new tiled variable subscripts. Interchanging a legal but
	// fragmenting candidate (tiny blocks) is worse than the subset-send
	// fallback, so the driver weighs this against the tile size.
	InterchangeBlockElems int64

	// Environment facts.
	Consts   map[string]int64 // named integer constants of the unit
	Arrays   map[string]bool  // declared arrays
	ArDims   []access.Triplet // declared dims of Ar
	AsDims   []access.Triplet // declared dims of As
	RankVar  string           // variable holding the MPI rank ("" if none)
	SizeVar  string           // variable holding the communicator size
	InitIdx  int              // body index just after mpi_init (-1 if absent)
	SemiAuto bool             // true when the oracle was consulted

	Notes []string // human-readable analysis notes

	// proofs (nil when the caller gave none) and key address this site's
	// ProofMemo entries.
	proofs *ProofMemo
	key    proofKey
}

// note appends a formatted analysis note.
func (op *Opportunity) note(format string, args ...interface{}) {
	op.Notes = append(op.Notes, fmt.Sprintf(format, args...))
}

// Options configures the analysis.
type Options struct {
	Oracle Oracle
	// NP, when > 0, overrides/provides the number of ranks for checks that
	// need it numerically (otherwise a named constant "np" is used if found).
	NP int
	// Proofs, when non-nil, keeps the per-site proofs across calls on clones
	// of one program. Nil derives everything afresh, as a validator must.
	Proofs *ProofMemo
}

// RejectionError explains why a candidate call site is not transformable.
type RejectionError struct {
	Pos    ftn.Pos
	Reason string
}

// Error implements the error interface.
func (e *RejectionError) Error() string {
	return fmt.Sprintf("%s: not transformable: %s", e.Pos, e.Reason)
}

func reject(pos ftn.Pos, format string, args ...interface{}) *RejectionError {
	return &RejectionError{Pos: pos, Reason: fmt.Sprintf(format, args...)}
}
