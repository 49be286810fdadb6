package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/ftn"
)

// Fingerprint is a stable hash of the tuning problem a program presents on
// a machine: the per-site opportunity facts analysis discovered (pattern,
// geometry, interchange legality) plus the machine name and the analysis
// rank count. Two programs with the same fingerprint expose identical
// sites with identical facts to the planner, so the search space, the
// analytic seeds, and the cost model's view of every candidate coincide —
// a plan tuned for one is the tuned plan for the other. That is what makes
// the fingerprint a memo key for tuning results: repeat queries over
// shape-identical programs become O(lookup) instead of O(search).
//
// The raw source bytes are deliberately excluded — comments and formatting
// do not change the tuning problem, so the program's contribution is the
// parse-normalized statement structure (the printed AST with comment lines
// dropped). That normalization still separates programs whose compute
// bodies differ (compute-communication balance IS part of the problem,
// even when every site fact agrees) while aliasing incidental rewrites the
// sha256 content key would split. Site keys (line:col positions) ARE
// included: plans address sites by position, so a memoized plan is only
// replayable onto a program whose sites sit at the same keys.
//
// Everything but the machine name — the rank count, the normalized code
// hash and the site facts — is a property of the analyzed program: the
// first call on a Program prints its AST and formats its sites once, and
// every call, that one included, hashes the machine name in front of the
// kept text. Analyze pays nothing for it. Concurrent first callers may each
// compute the text; they compute the same one, and one of them is kept.
func Fingerprint(p *Program, machine string) string {
	shape := p.shape.Load()
	if shape == nil {
		s := shapeOf(p)
		shape = &s
		p.shape.Store(shape)
	}
	const head = "fp/v1|machine="
	var buf [1024]byte
	b := append(append(append(buf[:0], head...), machine...), *shape...)
	sum := sha256.Sum256(b)
	var out [len("fp1-") + 2*sha256.Size]byte
	copy(out[:], "fp1-")
	hex.Encode(out[len("fp1-"):], sum[:])
	return string(out[:])
}

// shapeOf is the machine-independent rest of p's fingerprint text.
func shapeOf(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "|np=%d|code=%s|sites=%d", p.opts.NP, normalizedCodeHash(p.file), len(p.Sites))
	for i := range p.Sites {
		s := &p.Sites[i]
		fmt.Fprintf(&b, "|site=%s;pat=%d;case=%d;tr=%t;part=%d;trip=%d;bytes=%d;il=%t;ib=%d",
			s.Key(), s.Pattern, s.NodeCase, s.Transformable,
			s.PartitionSize, s.TripCount, s.PerIterBytes,
			s.InterchangeLegal, s.InterchangeBlockElems)
		if !s.Transformable {
			// A rejected site is dead space for the planner, but the reason
			// class distinguishes shapes (e.g. non-divisible geometry vs no
			// enclosing loop) that could otherwise alias.
			fmt.Fprintf(&b, ";rej=%s", s.Reason)
		}
	}
	return b.String()
}

// normalizedCodeHash hashes the parse-normalized statement structure:
// print the AST, drop comment and blank lines, hash the rest. Trailing
// comments never reach the AST and whole-line comments are dropped here,
// so commentary and formatting cannot split fingerprints.
func normalizedCodeHash(file *ftn.File) string {
	h := sha256.New()
	for _, line := range strings.Split(ftn.Print(file), "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "!") {
			continue
		}
		h.Write([]byte(t))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
