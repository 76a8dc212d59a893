package statevec

import (
	"runtime"

	"hsfsim/internal/cmat"
	"hsfsim/internal/gate"
	"hsfsim/internal/par"
)

// DefaultTileQubits sets the cache-blocked sweep tile: 2^13 amplitudes of
// complex128 = 128 KiB, sized to stay resident in a per-core L2 cache while a
// run of gates replays over it.
const DefaultTileQubits = 13

// minPhasePasses is the number of run members reaching the tile boundary —
// each a full pass over the state when applied as a gate — from which a
// diagonal run pays for a phase step's three multiplies per amplitude.
const minPhasePasses = 3

// StepKind names how a compiled step sweeps the state.
type StepKind uint8

const (
	// StepHigh is one gate reaching the tile boundary, or a pair of 1-qubit
	// gates above it applied as their Kronecker product: a full-state pass.
	StepHigh StepKind = iota
	// StepTiled is a run of gates below the boundary replayed tile by tile.
	StepTiled
	// StepPhase is a run of diagonal gates applied as one table-driven pass.
	StepPhase
)

// segStep is one unit of a compiled segment.
type segStep struct {
	gates []gate.Gate // aliases the compiled gate slice
	kind  StepKind
	phase *phaseStep // StepPhase only
	pair  *gate.Gate // StepHigh on two gates: their Kronecker product
}

// CompiledSegment is a gate sequence preprocessed for repeated application:
// every k≥3 gate carries its kernel plan, the shared gather-scratch
// requirement is precomputed, and consecutive gates acting only on qubits
// below the tile boundary are grouped into cache-blocked sweeps — one pass
// over the statevector in 2^TileQubits-amplitude tiles applying the whole run
// per tile, instead of one full memory sweep per gate. On a register larger
// than one tile, diagonal gates are first gathered into maximal runs and a run
// that would cost minPhasePasses full passes becomes a phase step, and 1-qubit
// gates above the boundary are paired into one pass each. For states at or
// below one tile (every HSF partition state small enough to be cache-resident
// anyway) compilation degrades to prepared inline application with a single
// shared scratch.
type CompiledSegment struct {
	steps   []segStep
	tileQ   int
	scratch int   // max kernel gather-buffer length across all steps
	tables  int64 // bytes of phase tables
	n       int   // qubit count the segment was compiled for
	// start is the product state a CompileProduct segment runs from, nil
	// for |0…0⟩; writes records that its first step writes that state.
	start  [][2]complex128
	writes bool
}

// CompileSegment prepares gs (attaching kernel plans) and groups it into
// sweep steps for an n-qubit register. The compiled segment aliases gs (or,
// above one tile, a reordered copy sharing its matrices), so the caller must
// not mutate the gates afterwards.
func CompileSegment(gs []gate.Gate, n int) *CompiledSegment {
	return compileSegment(gs, n, DefaultTileQubits)
}

// CompileProduct compiles gs, like CompileSegment, for the len(qs)-qubit
// register that starts in the product state ⊗_q (qs[q][0]|0⟩ + qs[q][1]|1⟩).
// When the first step is a phase step, the state is folded into it: that
// step multiplies each tile's phases by the state's factors and writes the
// product, so no pass writes the state before it. Run the segment over the
// vector NewState returns.
func CompileProduct(qs [][2]complex128, gs []gate.Gate) *CompiledSegment {
	return compileProduct(qs, gs, DefaultTileQubits)
}

func compileProduct(qs [][2]complex128, gs []gate.Gate, tileQ int) *CompiledSegment {
	cs := compileSegment(gs, len(qs), tileQ)
	cs.start = qs
	if len(cs.steps) > 0 && cs.steps[0].kind == StepPhase {
		cs.steps[0].phase.start, cs.writes = qs, true
	}
	cs.endOnTiles()
	return cs
}

// endOnTiles makes the last step a tiled or phase step, the pass ApplyLast
// interleaves the result in. When high steps follow the last such step, it
// moves behind them if the one commutation rule lets each of its gates pass
// each of theirs (and it is not the step that writes the start state);
// otherwise a tiled step with no gates closes the segment.
func (cs *CompiledSegment) endOnTiles() {
	k := len(cs.steps) - 1
	for k >= 0 && cs.steps[k].kind == StepHigh {
		k--
	}
	if k >= 0 && k == len(cs.steps)-1 {
		return
	}
	if k > 0 || k == 0 && !cs.writes {
		all, off := stepMasks(cs.steps[k : k+1])
		highAll, highOff := stepMasks(cs.steps[k+1:])
		if off&highAll == 0 && all&highOff == 0 {
			st := cs.steps[k]
			cs.steps = append(append(cs.steps[:k], cs.steps[k+1:]...), st)
			return
		}
	}
	cs.steps = append(cs.steps, segStep{kind: StepTiled})
}

// stepMasks returns the qubits the steps' gates act on and those some gate
// among them is not diagonal on.
func stepMasks(steps []segStep) (all, off uint64) {
	for _, st := range steps {
		for i := range st.gates {
			a, o := qubitMasks(&st.gates[i])
			all, off = all|a, off|o
		}
	}
	return all, off
}

// qubitMasks returns the qubits g acts on and those it is not diagonal on.
func qubitMasks(g *gate.Gate) (all, off uint64) {
	for b, q := range g.Qubits {
		all |= 1 << q
		if !g.DiagonalOn(b) {
			off |= 1 << q
		}
	}
	return all, off
}

// NewState allocates the register the segment runs from: zeroed planes when
// its first step writes the start state, else that state.
func (cs *CompiledSegment) NewState() Vector { return cs.NewStateIn(nil) }

// NewStateIn allocates the register of a run whose result is dst, the first
// len(dst) amplitudes: see ApplyLast. When dst holds the whole state, the
// imaginary plane is the upper half of dst's memory and only the real plane
// is allocated beside it; otherwise both planes are. The register holds the
// start state as NewState's does.
func (cs *CompiledSegment) NewStateIn(dst []complex128) Vector {
	v := Vector{Re: alignedFloats(1 << cs.n)}
	if len(dst) == len(v.Re) {
		v.Im = imagPlane(dst)
	} else {
		v.Im = alignedFloats(len(v.Re))
	}
	cs.writeStart(v)
	return v
}

// writeStart writes the start state into the zeroed register v, unless the
// first step writes it.
func (cs *CompiledSegment) writeStart(v Vector) {
	if cs.writes {
		return
	}
	v.Re[0] = 1
	if cs.start != nil {
		v.basisToProduct(cs.start)
	}
}

func compileSegment(gs []gate.Gate, n, tileQ int) *CompiledSegment {
	PrepareGates(gs)
	cs := &CompiledSegment{tileQ: min(tileQ, n), n: n}
	var runs [][2]int
	var pairs []highPair
	if n > tileQ {
		gs, runs = gatherDiagonal(gs, tileQ)
		pairs = pairHigh(gs, runs, tileQ)
	}
	runStart := -1
	flush := func(end int) {
		if runStart >= 0 {
			cs.steps = append(cs.steps, segStep{gates: gs[runStart:end], kind: StepTiled})
			runStart = -1
		}
	}
	for i := 0; i < len(gs); i++ {
		if len(runs) > 0 && runs[0][0] == i {
			flush(i)
			end := runs[0][1]
			runs = runs[1:]
			cs.steps = append(cs.steps, segStep{gates: gs[i:end], kind: StepPhase, phase: newPhaseStep(gs[i:end], tileQ)})
			cs.scratch = max(cs.scratch, phaseScratch(tileQ))
			cs.tables += 16 << tileQ
			i = end - 1
			continue
		}
		if len(pairs) > 0 && pairs[0].at == i {
			flush(i)
			cs.steps = append(cs.steps, segStep{gates: gs[i : i+2], pair: &pairs[0].kron})
			pairs = pairs[1:]
			i++
			continue
		}
		g := &gs[i]
		if plan, ok := g.KernelCache().(*kernelPlan); ok && plan.scratch > cs.scratch {
			cs.scratch = plan.scratch
		}
		if g.MaxQubit() < cs.tileQ {
			if runStart < 0 {
				runStart = i
			}
			continue
		}
		flush(i)
		cs.steps = append(cs.steps, segStep{gates: gs[i : i+1]})
	}
	flush(len(gs))
	return cs
}

// gatherDiagonal reorders gs so that diagonal gates form maximal runs, using
// only the structural commutation rule (DESIGN.md "The one commutation rule":
// two gates commute when both are diagonal on every qubit they share). One
// run is open at a time, followed by the gates that could not pass it. A
// phase-step candidate joins the run when no gate behind the run is
// non-diagonal on one of its qubits; otherwise the run closes and a new one
// opens with it. Any other gate moves in front of the run when the rule lets
// it pass the run and everything behind it, and else queues behind the run.
// It returns the reordered copy and the [start,end) of every run worth a
// phase step.
func gatherDiagonal(gs []gate.Gate, tileQ int) (out []gate.Gate, runs [][2]int) {
	out = make([]gate.Gate, 0, len(gs))
	var run, behind []gate.Gate
	// Qubit masks: every qubit of the run, every qubit of the gates behind
	// it, and the qubits some gate behind it is not diagonal on.
	var runAll, behindAll, behindOff uint64
	passes := 0
	closeRun := func() {
		if passes >= minPhasePasses {
			runs = append(runs, [2]int{len(out), len(out) + len(run)})
		}
		// Run members commute with one another: those below the boundary go
		// first, where a run left as gates shares one tiled step.
		for _, low := range []bool{true, false} {
			for i := range run {
				if (run[i].MaxQubit() < tileQ) == low {
					out = append(out, run[i])
				}
			}
		}
		out = append(out, behind...)
		run, behind = run[:0], behind[:0]
		runAll, behindAll, behindOff, passes = 0, 0, 0, 0
	}
	for i := range gs {
		g := &gs[i]
		all, off := qubitMasks(g)
		below := 0
		for _, q := range g.Qubits {
			if q < tileQ {
				below++
			}
		}
		// A diagonal gate straddling the boundary with two or more qubits
		// below it is not a per-tile product of one-qubit factors.
		candidate := g.Diagonal && (below <= 1 || below == len(g.Qubits))
		switch {
		case candidate:
			if all&behindOff != 0 {
				closeRun()
			}
			run = append(run, *g)
			runAll |= all
			if below < len(g.Qubits) {
				passes++
			}
		case off&(runAll|behindAll) == 0 && all&behindOff == 0:
			out = append(out, *g)
		default:
			behind = append(behind, *g)
			behindAll |= all
			behindOff |= off
		}
	}
	closeRun()
	return out, runs
}

// highPair is a pair of 1-qubit gates above the tile boundary that gs holds
// at at and at+1, and their Kronecker product.
type highPair struct {
	at   int
	kron gate.Gate
}

// pairHigh pairs the non-diagonal 1-qubit gates above the tile boundary so
// that each pair costs one full pass instead of two. Scanning the stretches
// between phase runs, a gate A pairs with the first later such gate B on
// another qubit that no gate between them touches — the one commutation rule
// lets B, non-diagonal on its qubit, pass exactly the gates that do not
// touch it — and B moves in place to follow A. Pairs stop at the boundary:
// below it a 1-qubit pass runs from L2 at the speed of the tiled step, and a
// dense 4×4 pass does twice its arithmetic per amplitude.
func pairHigh(gs []gate.Gate, runs [][2]int, tileQ int) []highPair {
	high := func(g *gate.Gate) bool {
		return len(g.Qubits) == 1 && !g.Diagonal && g.Qubits[0] >= tileQ
	}
	var pairs []highPair
	for i, r := 0, 0; i < len(gs); i++ {
		if r < len(runs) && runs[r][0] == i {
			i, r = runs[r][1]-1, r+1
			continue
		}
		if !high(&gs[i]) {
			continue
		}
		end := len(gs)
		if r < len(runs) {
			end = runs[r][0]
		}
		var between uint64 // qubits the gates after A touch
		for j := i + 1; j < end; j++ {
			b := gs[j]
			if q := b.Qubits[0]; high(&b) && q != gs[i].Qubits[0] && between>>q&1 == 0 {
				copy(gs[i+2:j+1], gs[i+1:j])
				gs[i+1] = b
				// B·A on [A's qubit, B's qubit]: Qubits[0] is index bit 0, so
				// B is the upper Kronecker factor. Neither factor is diagonal,
				// so the pair runs as a dense 4×4 — one pass.
				pairs = append(pairs, highPair{at: i, kron: gate.Gate{
					Name:   "pair",
					Qubits: []int{gs[i].Qubits[0], b.Qubits[0]},
					Matrix: cmat.Kron(b.Matrix, gs[i].Matrix),
				}})
				i++
				break
			}
			for _, q := range b.Qubits {
				between |= 1 << q
			}
		}
	}
	return pairs
}

// phaseStep applies a run of diagonal gates in one pass: the amplitude at
// tile t, offset i is multiplied by
//
//	Π_high d_g(t) · ⊗_l (p0_l(t), p1_l(t))[i] · low[i]
//
// where low is the product of the members entirely below the tile boundary,
// the first factor collects the members entirely at or above it, and a member
// with exactly one qubit l below it contributes, for the tile's fixed high
// bits, the pair of diagonal entries selected by bit l. The members reaching
// the boundary are evaluated per tile from their diagonals — a few operations
// per gate against 2^tileQ amplitudes — so a step owns 2^tileQ table entries
// whatever the register size. Nothing divides: cut-term projectors have zero
// entries.
//
// A step with a start state (CompileProduct) writes rather than multiplies:
// the product state's factors join the phases — those of the in-tile qubits
// as per-bit pairs, those of the high qubits in the tile's seed — so the
// amplitude becomes the product itself and the state is never read.
type phaseStep struct {
	low   Vector
	above []gate.Gate // the members reaching the boundary
	tileQ int
	start [][2]complex128
}

// phaseScratch is the per-worker scratch of a phase step: tileQ factor pairs
// and the two Kronecker half-tables of the tile's bits.
func phaseScratch(tileQ int) int {
	a := (tileQ + 1) / 2
	return 2*tileQ + 1<<a + 1<<(tileQ-a)
}

// newPhaseStep builds the step of a run as gatherDiagonal orders it: members
// below the boundary first.
func newPhaseStep(run []gate.Gate, tileQ int) *phaseStep {
	p := &phaseStep{low: MakeVector(1 << tileQ), above: run, tileQ: tileQ}
	for i := range p.low.Re {
		p.low.Re[i] = 1
	}
	for len(p.above) > 0 && p.above[0].MaxQubit() < tileQ {
		p.low.applyInline(&p.above[0], nil)
		p.above = p.above[1:]
	}
	return p
}

// kron writes seed · ⊗_l (pairs[2l], pairs[2l+1]) into dst by doubling.
func kron(dst []complex128, seed complex128, pairs []complex128) {
	dst[0] = seed
	for l, size := 0, 1; size < len(dst); l, size = l+1, size<<1 {
		p0, p1 := pairs[2*l], pairs[2*l+1]
		for j := 0; j < size; j++ {
			dst[j+size] = dst[j] * p1
			dst[j] *= p0
		}
	}
}

// apply multiplies tile t of the state by its phases. The tile's Kronecker
// factor splits into a table over the lower and one over the upper half of
// its bits, so the inner loop is three multiplies per amplitude against two
// L1-resident tables and the low table, with no tile-sized scratch.
func (p *phaseStep) apply(tile Vector, t int, buf []complex128) {
	pairs := buf[:2*p.tileQ]
	seed := complex(1, 0)
	if p.start != nil {
		for l := range p.tileQ {
			pairs[2*l], pairs[2*l+1] = p.start[l][0], p.start[l][1]
		}
		for q := p.tileQ; q < len(p.start); q++ {
			seed *= p.start[q][t>>(q-p.tileQ)&1]
		}
	} else {
		for i := range pairs {
			pairs[i] = 1
		}
	}
	for gi := range p.above {
		g := &p.above[gi]
		d, stride := g.Matrix.Data, 1<<len(g.Qubits)+1
		idx, low, lowBit := 0, -1, 0
		for b, q := range g.Qubits {
			if q < p.tileQ {
				low, lowBit = q, 1<<b
			} else {
				idx |= (t >> (q - p.tileQ) & 1) << b
			}
		}
		if low < 0 {
			seed *= d[idx*stride]
			continue
		}
		pairs[2*low] *= d[idx*stride]
		pairs[2*low+1] *= d[(idx|lowBit)*stride]
	}
	a := (p.tileQ + 1) / 2
	na := 1 << a
	ka := buf[2*p.tileQ : 2*p.tileQ+na]
	kb := buf[2*p.tileQ+na : phaseScratch(p.tileQ)]
	kron(ka, 1, pairs[:2*a])
	kron(kb, seed, pairs[2*a:])
	for b, c := range kb {
		cr, ci := real(c), imag(c)
		re, im := tile.Re[b<<a:(b+1)<<a], tile.Im[b<<a:(b+1)<<a]
		lre, lim := p.low.Re[b<<a:(b+1)<<a], p.low.Im[b<<a:(b+1)<<a]
		if p.start != nil {
			for x, k := range ka {
				wr := real(k)*cr - imag(k)*ci
				wi := real(k)*ci + imag(k)*cr
				re[x] = wr*lre[x] - wi*lim[x]
				im[x] = wr*lim[x] + wi*lre[x]
			}
			continue
		}
		for x, k := range ka {
			wr := real(k)*cr - imag(k)*ci
			wi := real(k)*ci + imag(k)*cr
			pr := wr*lre[x] - wi*lim[x]
			pi := wr*lim[x] + wi*lre[x]
			r, m := re[x], im[x]
			re[x] = pr*r - pi*m
			im[x] = pr*m + pi*r
		}
	}
}

// NumSteps returns the number of sweep steps; drive ApplyStep over
// [0,NumSteps) to interleave cancellation checks with bounded-size units of
// work.
func (cs *CompiledSegment) NumSteps() int { return len(cs.steps) }

// Step reports the kind of sweep step i and how many gates it applies.
func (cs *CompiledSegment) Step(i int) (StepKind, int) {
	return cs.steps[i].kind, len(cs.steps[i].gates)
}

// NumQubits returns the register size the segment was compiled for.
func (cs *CompiledSegment) NumQubits() int { return cs.n }

// TableBytes returns the memory the segment's phase tables hold for its
// lifetime plus the scratch its sweep workers borrow while applying it.
func (cs *CompiledSegment) TableBytes() int64 {
	return cs.tables + int64(16*cs.scratch*runtime.GOMAXPROCS(0))
}

// Apply runs the whole compiled segment over v.
func (cs *CompiledSegment) Apply(v Vector) {
	for i := range cs.steps {
		cs.ApplyStep(v, i)
	}
}

// ApplyStep runs sweep step i over v. Tiled and phase steps iterate aligned
// 2^tileQ-amplitude tiles — each tile is a self-contained sub-register for
// gates below the boundary — applying every gate of the run, or the run's
// phases, while the tile is cache-hot; tiles are distributed across the
// parallelism budget. High gates run as ordinary full-state passes. Tiles
// slice both SoA planes, so a tile is itself a Vector and the kernels' span
// dispatch applies within it.
func (cs *CompiledSegment) ApplyStep(v Vector, i int) {
	st := &cs.steps[i]
	if st.kind == StepHigh {
		g := &st.gates[0]
		if st.pair != nil {
			g = st.pair
		}
		v.ApplyGate(g)
		return
	}
	tiles := v.Len() >> cs.tileQ
	if tiles <= 1 || par.Inner() <= 1 {
		cs.sweep(v, st, 0, max(tiles, 1), nil)
		return
	}
	parallelRange(tiles, func(lo, hi int) { cs.sweep(v, st, lo, hi, nil) })
}

// noGates is the tiled step ApplyLast interleaves in after a last high step.
var noGates = segStep{kind: StepTiled}

// ApplyLast runs the segment's last step over v in place of ApplyStep and
// writes the first len(dst) amplitudes of the result into dst, interleaved:
// the tile pass that finishes a tile interleaves it while it is cache-hot,
// and tiles beyond dst are not swept. A last high step runs first, and then a
// tiled step with no gates (CompileProduct segments end on tiles).
//
// dst may hold v's imaginary plane in the upper half of its memory
// (NewStateIn). Then tile t ≥ T/2 of T overwrites imaginary tiles 2t−T and
// 2t−T+1, so the tiles go in waves: [0, T/2) in any order, then [T/2, 3T/4),
// [3T/4, 7T/8), … each in parallel, each overwriting only tiles an earlier
// wave read, and the last tile alone. That tile overwrites its own
// imaginary half: of its L amplitudes, amplitude i lands on imaginary
// entries 2i−L and 2i−L+1, and CopyToComplex reads entry i before it writes
// amplitude i, in ascending order, so every entry is read before it is
// overwritten.
func (cs *CompiledSegment) ApplyLast(v Vector, dst []complex128) {
	st := &noGates
	if last := len(cs.steps) - 1; last >= 0 {
		if cs.steps[last].kind == StepHigh {
			cs.ApplyStep(v, last)
		} else {
			st = &cs.steps[last]
		}
	}
	tileLen := min(1<<cs.tileQ, v.Len())
	tiles := (len(dst) + tileLen - 1) / tileLen
	if tiles <= 1 || par.Inner() <= 1 {
		// Ascending tile order is one wave at a time.
		cs.sweep(v, st, 0, tiles, dst)
		return
	}
	if len(dst) < v.Len() {
		parallelRange(tiles, func(lo, hi int) { cs.sweep(v, st, lo, hi, dst) })
		return
	}
	for lo := 0; lo < tiles; {
		hi := lo + max((tiles-lo)/2, 1)
		parallelRange(hi-lo, func(a, b int) { cs.sweep(v, st, lo+a, lo+b, dst) })
		lo = hi
	}
}

// sweep applies step st to tiles [lo,hi) of v with one borrowed scratch and,
// when dst is not nil, interleaves each finished tile's amplitudes below
// len(dst) into dst.
func (cs *CompiledSegment) sweep(v Vector, st *segStep, lo, hi int, dst []complex128) {
	var sp *[]complex128
	var buf []complex128
	if cs.scratch > 0 {
		sp, buf = getScratch(cs.scratch)
	}
	tileLen := min(1<<cs.tileQ, v.Len())
	for t := lo; t < hi; t++ {
		sub := v.Slice(t*tileLen, (t+1)*tileLen)
		if st.phase != nil {
			st.phase.apply(sub, t, buf)
		} else {
			for g := range st.gates {
				sub.applyInline(&st.gates[g], buf)
			}
		}
		if dst != nil {
			out := dst[t*tileLen : min((t+1)*tileLen, len(dst))]
			sub.Slice(0, len(out)).CopyToComplex(out)
		}
	}
	if sp != nil {
		scratchPool.Put(sp)
	}
}
