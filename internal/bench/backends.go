package bench

import (
	"fmt"
	"time"

	"hsfsim/internal/circuit"
	"hsfsim/internal/dd"
	"hsfsim/internal/gate"
	"hsfsim/internal/qaoa"
	"hsfsim/internal/statevec"
)

// BackendRow compares two of the statevector representations the paper's
// background surveys — plain arrays and decision diagrams — on one circuit:
// runtime plus the representation-size measure of each (amplitudes / DD
// nodes).
type BackendRow struct {
	Name      string
	Qubits    int
	Gates     int
	ArrayTime time.Duration
	ArrayAmps int
	DDTime    time.Duration
	DDNodes   int
	MaxDiff   float64 // cross-check between backends (small circuits only)
}

// BackendCase is one benchmark circuit.
type BackendCase struct {
	Name    string
	Circuit *circuit.Circuit
	// Verify expands both representations and cross-checks amplitudes
	// (exponential; keep for small circuits only).
	Verify bool
}

// DefaultBackendCases builds the comparison workloads: a GHZ chain (DD
// compresses it) and a QAOA layer (structured).
func DefaultBackendCases() ([]BackendCase, error) {
	var cases []BackendCase

	ghz := circuit.New(14)
	ghz.Append(gate.H(0))
	for q := 1; q < 14; q++ {
		ghz.Append(gate.CNOT(q-1, q))
	}
	cases = append(cases, BackendCase{Name: "ghz-14", Circuit: ghz, Verify: true})

	inst, err := qaoa.InstanceSpec{Name: "qaoa", SizeA: 6, SizeB: 6, PIntra: 0.8, PInter: 0.2, Seed: 9}.Generate(qaoa.SingleLayer())
	if err != nil {
		return nil, err
	}
	cases = append(cases, BackendCase{Name: "qaoa-12", Circuit: inst.Circuit, Verify: true})

	return cases, nil
}

// RunBackends measures every case on both backends.
func RunBackends(cases []BackendCase) ([]*BackendRow, error) {
	var rows []*BackendRow
	for _, cs := range cases {
		c := cs.Circuit
		row := &BackendRow{Name: cs.Name, Qubits: c.NumQubits, Gates: len(c.Gates)}

		start := time.Now()
		arr := statevec.NewVector(c.NumQubits)
		arr.ApplyAll(c.Gates)
		row.ArrayTime = time.Since(start)
		row.ArrayAmps = arr.Len()

		start = time.Now()
		ddState := dd.New(c.NumQubits, 0)
		if err := ddState.ApplyCircuit(c); err != nil {
			return nil, fmt.Errorf("bench: %s dd: %w", cs.Name, err)
		}
		row.DDTime = time.Since(start)
		row.DDNodes = ddState.NumNodes()

		if cs.Verify {
			row.MaxDiff = statevec.MaxAbsDiff(ddState.ToStatevector(), arr.ToComplex())
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderBackends formats the comparison.
func RenderBackends(rows []*BackendRow) string {
	t := &table{header: []string{
		"circuit", "qubits", "gates", "array time", "2^n amps", "DD time", "DD nodes", "max diff",
	}}
	for _, r := range rows {
		t.add(r.Name,
			fmt.Sprintf("%d", r.Qubits),
			fmt.Sprintf("%d", r.Gates),
			r.ArrayTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", r.ArrayAmps),
			r.DDTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", r.DDNodes),
			fmt.Sprintf("%.1e", r.MaxDiff))
	}
	return "Backend study: array vs. decision diagram (paper Background, refs [9]-[15])\n" + t.String()
}
