// Circuit fingerprinting for plan caches and request batching. A fingerprint
// keys "would these two submissions compile to the same plan and produce the
// same amplitudes": the register size, the exact gate sequence (names,
// qubits, parameters, matrices), and — through FingerprintOptions — every
// plan-affecting knob. Unlike PlanHash it is computed without building the
// plan, so a cache can decide "hit" before paying for any Schmidt
// decomposition.
//
// The fingerprint is a cache key, not a canonical form: structurally
// equivalent circuits written differently (reordered commuting gates, a
// custom matrix equal to a library gate) may hash apart. That direction only
// costs a cache miss; two circuits with equal fingerprints always execute
// identically, because every byte that reaches the simulator is hashed.
package hsf

import (
	"math"

	"hsfsim/internal/circuit"
)

// fnv64a is a running 64-bit FNV-1a hash, the hash/fnv New64a sum computed
// in a register: the fingerprints below feed it a word at a time, and each
// write through a hash.Hash would be an indirect call with an escaping
// buffer. Each method returns the hash with its input appended.
type fnv64a uint64

const (
	fnvOffset fnv64a = 14695981039346656037
	fnvPrime  fnv64a = 1099511628211
)

// str appends the bytes of s.
func (h fnv64a) str(s string) fnv64a {
	for i := 0; i < len(s); i++ {
		h = (h ^ fnv64a(s[i])) * fnvPrime
	}
	return h
}

// u64 appends v's eight bytes, little-endian.
func (h fnv64a) u64(v uint64) fnv64a {
	for range 8 {
		h = (h ^ fnv64a(v&0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// f64 appends v's IEEE bits.
func (h fnv64a) f64(v float64) fnv64a { return h.u64(math.Float64bits(v)) }

// c128 appends v's real and imaginary parts.
func (h fnv64a) c128(v complex128) fnv64a { return h.f64(real(v)).f64(imag(v)) }

// CircuitFingerprint hashes the circuit itself: register size and the
// ordered gate list with names, qubit operands, parameters, and matrix
// entries. Stable across Clone and across parse/re-parse of the same source.
func CircuitFingerprint(c *circuit.Circuit) uint64 {
	h := fnvOffset.u64(uint64(c.NumQubits))
	for i := range c.Gates {
		g := &c.Gates[i]
		h = h.str(g.Name).str("\x00") // name terminator: ("ab","c") != ("a","bc")
		h = h.u64(uint64(len(g.Qubits)))
		for _, q := range g.Qubits {
			h = h.u64(uint64(q))
		}
		h = h.u64(uint64(len(g.Params)))
		for _, p := range g.Params {
			h = h.f64(p)
		}
		if g.Matrix == nil {
			h = h.u64(0)
			continue
		}
		h = h.u64(uint64(g.Matrix.Rows))
		for _, v := range g.Matrix.Data {
			h = h.c128(v)
		}
	}
	return uint64(h)
}

// FingerprintOptions extends a circuit fingerprint with the plan-affecting
// execution options; the values are hashed in the order given. Callers pass
// the normalized method, cut position, strategy, block budget, tolerance and
// flags — anything that changes the compiled plan or the amplitudes.
func FingerprintOptions(circuitFP uint64, fields ...uint64) uint64 {
	h := fnvOffset.u64(circuitFP)
	for _, f := range fields {
		h = h.u64(f)
	}
	return uint64(h)
}
