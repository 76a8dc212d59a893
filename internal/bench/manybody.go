package bench

import (
	"errors"
	"fmt"
	"time"

	"hsfsim"
	"hsfsim/internal/circuit"
	"hsfsim/internal/cut"
	"hsfsim/internal/gate"
)

// ManybodyPoint measures HSF on a Trotterized Ising chain at one depth —
// the Richter-style many-body workload (paper ref [35]): exactly one bond
// crosses the cut, so standard HSF pays 2 paths per Trotter step while the
// memory footprint stays at 2^(n/2+1).
type ManybodyPoint struct {
	Steps        int
	StandardLog2 float64
	JointLog2    float64
	HSFTime      time.Duration
	HSFTimed     bool
	SchrodTime   time.Duration
}

// ManybodySeries measures steps = 1..maxSteps on an n-site chain.
func ManybodySeries(n, maxSteps int, maxAmplitudes int, timeout time.Duration) ([]ManybodyPoint, error) {
	var out []ManybodyPoint
	cutPos := n/2 - 1
	for s := 1; s <= maxSteps; s++ {
		c := isingTrotter(n, s, 1, 0.5, 0.1)
		p := cut.Partition{CutPos: cutPos}
		std, err := cut.BuildPlan(c, cut.Options{Partition: p, Strategy: cut.StrategyNone})
		if err != nil {
			return nil, err
		}
		jnt, err := cut.BuildPlan(c, cut.Options{Partition: p, Strategy: cut.StrategyCascade})
		if err != nil {
			return nil, err
		}
		pt := ManybodyPoint{Steps: s, StandardLog2: std.Log2Paths(), JointLog2: jnt.Log2Paths()}

		schrod, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.Schrodinger, MaxAmplitudes: maxAmplitudes})
		if err != nil {
			return nil, err
		}
		pt.SchrodTime = schrod.TotalTime()

		hres, err := hsfsim.Simulate(c, hsfsim.Options{
			Method: hsfsim.StandardHSF, CutPos: cutPos,
			MaxAmplitudes: maxAmplitudes, Timeout: timeout,
		})
		switch {
		case err == nil:
			pt.HSFTime = hres.TotalTime()
		case errors.Is(err, hsfsim.ErrTimeout):
			pt.HSFTimed = true
		default:
			return nil, fmt.Errorf("bench: manybody steps=%d: %w", s, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// isingTrotter is the first-order Trotter circuit of the open transverse-field
// Ising chain H = J Σ Z_i Z_{i+1} + h Σ X_i on n sites, started from |+…+⟩:
// per step RZZ(2Jδt) on every bond, then RX(2hδt) on every site.
func isingTrotter(n, steps int, j, h, dt float64) *circuit.Circuit {
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.Append(gate.H(q))
	}
	for s := 0; s < steps; s++ {
		for q := 0; q+1 < n; q++ {
			c.Append(gate.RZZ(2*j*dt, q, q+1))
		}
		for q := 0; q < n; q++ {
			c.Append(gate.RX(2*h*dt, q))
		}
	}
	return c
}

// RenderManybody formats the many-body study.
func RenderManybody(n int, points []ManybodyPoint, timeout time.Duration) string {
	t := &table{header: []string{"Trotter steps", "HSF paths (std)", "HSF paths (joint)", "HSF time", "Schrödinger time"}}
	for _, p := range points {
		ht := p.HSFTime.Round(time.Millisecond).String()
		if p.HSFTimed {
			ht = fmt.Sprintf("timed out (%s)", timeout)
		}
		t.add(fmt.Sprintf("%d", p.Steps),
			fmtPaths(p.StandardLog2),
			fmtPaths(p.JointLog2),
			ht,
			p.SchrodTime.Round(time.Millisecond).String())
	}
	return fmt.Sprintf("Many-body extension (ref [35]): Trotterized %d-site Ising chain, cut at the middle bond\n", n) + t.String()
}
