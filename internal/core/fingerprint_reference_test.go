package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// ReferenceFingerprint is Fingerprint as it was before the program kept its
// machine-independent part: the whole text printed, formatted and hashed on
// every call. The cached Fingerprint must return the same string.
func ReferenceFingerprint(p *Program, machine string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fp/v1|machine=%s|np=%d|code=%s|sites=%d",
		machine, p.opts.NP, normalizedCodeHash(p.file), len(p.Sites))
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
	sum := sha256.Sum256([]byte(b.String()))
	return "fp1-" + hex.EncodeToString(sum[:])
}
