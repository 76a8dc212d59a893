package statevec

// Projection drops qubits nothing later acts on and whose amplitudes a caller
// reads only at 0. Each dropped qubit q is contracted with a row r_q, so the
// result is (⊗_q ⟨r_q|) ψ on the remaining qubits, in their order. The row
// (1, 0) is the plain slice onto q = 0; row 0 of a 1-qubit gate U is U
// followed by that slice, so a last gate on q costs no pass of its own. All
// dropped qubits go in one pass that reads the amplitudes the rows select and
// writes the result over the leading amplitudes of the state.
type Projection struct {
	drop  []int        // dropped qubits in the input's labels, ascending
	offs  []int        // input offset of each assignment of the contracted qubits
	coefs []complex128 // that assignment's coefficient: the product of its row entries
}

// NewProjection returns the projection dropping qubits drop, given in
// ascending order, onto rows[i] for drop[i].
func NewProjection(drop []int, rows [][2]complex128) *Projection {
	p := &Projection{drop: drop, offs: []int{0}, coefs: []complex128{1}}
	for i, q := range drop {
		r, n := rows[i], len(p.offs)
		if r[1] != 0 {
			for s := range n {
				p.offs = append(p.offs, p.offs[s]|1<<q)
				p.coefs = append(p.coefs, p.coefs[s]*r[1])
			}
		}
		for s := range n {
			p.coefs[s] *= r[0]
		}
	}
	return p
}

// NumDropped returns how many qubits p drops; a nil Projection drops none.
func (p *Projection) NumDropped() int {
	if p == nil {
		return 0
	}
	return len(p.drop)
}

// Apply projects v in place and returns the result: the leading
// v.Len()>>NumDropped() amplitudes of v. A nil Projection returns v.
//
// Output amplitudes agree with their input below the lowest dropped qubit, so
// the pass goes in runs of that length. A run at output offset c reads input
// runs from offset deposit(c) ≥ c onwards, which no earlier run has written,
// and the first of them is the only one that can overlap the run it writes.
func (p *Projection) Apply(v Vector) Vector {
	if p == nil {
		return v
	}
	out := v.Len() >> len(p.drop)
	run := 1 << p.drop[0]
	for c := 0; c < out; c += run {
		base := c
		for _, q := range p.drop {
			base = base>>q<<(q+1) | base&(1<<q-1)
		}
		dr, di := v.Re[c:c+run], v.Im[c:c+run]
		for s, off := range p.offs {
			sr, si := v.Re[base+off:base+off+run], v.Im[base+off:base+off+run]
			cr, ci := real(p.coefs[s]), imag(p.coefs[s])
			if s > 0 {
				ops.axpy(dr, di, sr, si, cr, ci)
				continue
			}
			copy(dr, sr)
			copy(di, si)
			if cr != 1 || ci != 0 {
				ops.scale(dr, di, cr, ci)
			}
		}
	}
	return v.Slice(0, out)
}
