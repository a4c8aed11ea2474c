package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"repro/internal/ir"
	"repro/internal/irtext"
)

// programKey is the program-level content-cache key: a digest of the
// canonical IR text (irtext.Print of the parsed program, so comment
// and whitespace variants collapse) plus every request option that
// shapes the response bytes. Strings reach the digest through a fixed
// chunk buffer: sha256's digest has no WriteString, and io.WriteString
// would copy the whole program text.
func programKey(canonical string, req *PlaceRequest) string {
	h := sha256.New()
	var chunk [512]byte
	writeString := func(s string) {
		for len(s) > 0 {
			n := copy(chunk[:], s)
			h.Write(chunk[:n])
			s = s[n:]
		}
	}
	writeString(canonical)
	h.Write([]byte{0})
	writeString(req.Machine)
	h.Write([]byte{0})
	writeString(req.Strategy)
	h.Write([]byte{0})
	writeString(req.Alloc)
	h.Write([]byte{0})
	for _, a := range req.Args {
		h.Write(binary.LittleEndian.AppendUint64(chunk[:0], uint64(a)))
	}
	flags := byte(0)
	if req.Run {
		flags |= 1
	}
	if req.Emit {
		flags |= 2
	}
	if req.Tier {
		flags |= 4
	}
	h.Write([]byte{0, flags})
	h.Write(binary.LittleEndian.AppendUint64(chunk[:0], uint64(req.Quantum)))
	// The engine never changes response bytes (the engines are
	// parity-tested), but the key covers every request field so no two
	// distinct requests ever alias an entry.
	writeString(req.Engine)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// funcHashes digests each function's canonical text, printing every
// function into one buffer. The digests must be taken after Profile
// and before Allocate: PrintFunc round-trips the entry count and edge
// weights, so a digest covers exactly what placement depends on (body
// + profile), while allocation would bake machine-specific spill code
// into it.
func funcHashes(funcs []*ir.Func) []string {
	hashes := make([]string, len(funcs))
	var text []byte
	for i, f := range funcs {
		text = irtext.AppendFunc(text[:0], f)
		sum := sha256.Sum256(text)
		hashes[i] = hex.EncodeToString(sum[:])
	}
	return hashes
}

// funcKey is the function-level content-cache key: placement is a
// deterministic function of (profiled body, machine preset, strategy,
// allocation mode), so identical tuples can reuse one FunctionEntry
// across programs. The allocation mode is part of the key because it
// changes which webs spill before placement ever runs.
type funcKey struct {
	hash     string
	machine  string
	strategy string
	alloc    string
}
