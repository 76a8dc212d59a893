package bench

import (
	"fmt"
	"time"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cut"
	"hsfsim/internal/gate"
)

// CascadePoint compares standard and joint cutting of a CNOT cascade of
// length k (paper Fig. 5 / Ex. 4), including the preprocessing cost of the
// joint block's numeric decomposition (Sec. IV-C).
type CascadePoint struct {
	Length        int
	StandardPaths uint64
	JointPaths    uint64
	NumericTime   time.Duration
}

// cascadeCircuit builds k CNOTs sharing the control, which sits just below
// the cut; the targets fan into the upper partition.
func cascadeCircuit(k int) *circuit.Circuit {
	c := circuit.New(k + 1)
	for i := 0; i < k; i++ {
		c.Append(gate.CNOT(0, i+1))
	}
	return c
}

// CascadeSeries measures cascades of length 1..max.
func CascadeSeries(max int) ([]CascadePoint, error) {
	var out []CascadePoint
	for k := 1; k <= max; k++ {
		c := cascadeCircuit(k)
		p := cut.Partition{CutPos: 0}
		std, err := cut.BuildPlan(c, cut.Options{Partition: p, Strategy: cut.StrategyNone})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		num, err := cut.BuildPlan(c, cut.Options{Partition: p, Strategy: cut.StrategyCascade, MaxBlockQubits: k + 1})
		if err != nil {
			return nil, err
		}
		numTime := time.Since(start)
		ns, _ := std.NumPaths()
		nn, _ := num.NumPaths()
		out = append(out, CascadePoint{
			Length:        k,
			StandardPaths: ns,
			JointPaths:    nn,
			NumericTime:   numTime,
		})
	}
	return out, nil
}

// RenderCascades formats the cascade study.
func RenderCascades(points []CascadePoint) string {
	t := &table{header: []string{"cascade length", "standard n_p", "joint n_p", "numeric prep"}}
	for _, p := range points {
		t.add(fmt.Sprintf("%d", p.Length),
			fmt.Sprintf("%d", p.StandardPaths),
			fmt.Sprintf("%d", p.JointPaths),
			p.NumericTime.Round(time.Microsecond).String())
	}
	return "Ex. 4 / Fig. 5: CNOT cascades — joint rank stays 2 while standard cutting pays 2^k\n" + t.String()
}
