package qaoa

import (
	"fmt"

	"hsfsim/internal/graph"
	"hsfsim/internal/obs"
	"hsfsim/internal/statevec"
)

// OptimizeOptions configures the QAOA angle search.
type OptimizeOptions struct {
	// Layers is the QAOA depth p (default 1).
	Layers int
	// MaxEvaluations bounds the number of circuit simulations (default 120).
	MaxEvaluations int
	// Evaluate scores a parameter set; nil selects the built-in full
	// statevector evaluator (feasible up to ~24 qubits). Custom evaluators
	// can plug in HSF simulation or hardware estimates.
	Evaluate func(Params) (float64, error)
	// WarmStart seeds the search with existing angles (must match Layers).
	WarmStart *Params
}

// OptimizeResult reports the best angles found.
type OptimizeResult struct {
	Params      Params
	ExpectedCut float64
	Evaluations int
}

// OptimizeAngles maximizes the expected cut value over the 2p QAOA angles
// with a derivative-free compass (pattern) search: each axis is probed with
// ± steps that halve whenever no axis improves. Deterministic and cheap —
// the standard baseline for shallow QAOA.
func OptimizeAngles(g *graph.Graph, opts OptimizeOptions) (*OptimizeResult, error) {
	layers := opts.Layers
	if layers <= 0 {
		layers = 1
	}
	budget := opts.MaxEvaluations
	if budget <= 0 {
		budget = 120
	}
	eval := opts.Evaluate
	if eval == nil {
		if g.N > 24 {
			return nil, fmt.Errorf("qaoa: %d qubits exceed the built-in evaluator; supply Evaluate", g.N)
		}
		eval = func(p Params) (float64, error) {
			c, err := Build(g, p)
			if err != nil {
				return 0, err
			}
			v := statevec.NewVector(g.N)
			v.ApplyAll(c.Gates)
			probs := make([]float64, v.Len())
			for i := range probs {
				probs[i] = v.Probability(i)
			}
			return obs.MaxCutEnergy(probs, g)
		}
	}

	// Angle vector x = (γ_1..γ_p, β_1..β_p); standard small-angle start or
	// the caller-provided warm start.
	x := make([]float64, 2*layers)
	if opts.WarmStart != nil {
		if len(opts.WarmStart.Gammas) != layers || len(opts.WarmStart.Betas) != layers {
			return nil, fmt.Errorf("qaoa: warm start has %d layers, want %d", len(opts.WarmStart.Gammas), layers)
		}
		copy(x[:layers], opts.WarmStart.Gammas)
		copy(x[layers:], opts.WarmStart.Betas)
	} else {
		for l := 0; l < layers; l++ {
			x[l] = 0.4 / float64(l+1)
			x[layers+l] = 0.3 / float64(l+1)
		}
	}
	toParams := func(x []float64) Params {
		p := Params{Gammas: make([]float64, layers), Betas: make([]float64, layers)}
		copy(p.Gammas, x[:layers])
		copy(p.Betas, x[layers:])
		return p
	}

	evals := 0
	score := func(x []float64) (float64, error) {
		evals++
		return eval(toParams(x))
	}
	best, err := score(x)
	if err != nil {
		return nil, err
	}
	step := 0.3
	for evals < budget && step > 1e-3 {
		improved := false
		for i := range x {
			for _, dir := range []float64{+1, -1} {
				if evals >= budget {
					break
				}
				cand := append([]float64(nil), x...)
				cand[i] += dir * step
				v, err := score(cand)
				if err != nil {
					return nil, err
				}
				if v > best {
					best = v
					x = cand
					improved = true
					break
				}
			}
		}
		if !improved {
			step /= 2
		}
	}
	return &OptimizeResult{Params: toParams(x), ExpectedCut: best, Evaluations: evals}, nil
}

// InterpolateAngles implements the INTERP depth-growing heuristic (Zhou et
// al.): optimized angles at depth p are linearly interpolated to seed depth
// p+1, which empirically lands near the deeper optimum and makes iterative
// deepening cheap.
func InterpolateAngles(p Params) Params {
	grow := func(xs []float64) []float64 {
		p := len(xs)
		out := make([]float64, p+1)
		for i := 0; i <= p; i++ {
			// out_i = ((i)·x_{i-1} + (p-i)·x_i)/p with 1-based paper indexing
			// adapted to 0-based slices; boundary terms use one neighbour.
			var v float64
			if i > 0 {
				v += float64(i) / float64(p) * xs[i-1]
			}
			if i < p {
				v += float64(p-i) / float64(p) * xs[i]
			}
			out[i] = v
		}
		return out
	}
	return Params{Gammas: grow(p.Gammas), Betas: grow(p.Betas)}
}

// OptimizeDeep runs iterative deepening: optimize at p=1, interpolate to
// seed p=2, and so on up to layers, splitting the evaluation budget evenly.
func OptimizeDeep(g *graph.Graph, layers int, budget int, evaluate func(Params) (float64, error)) (*OptimizeResult, error) {
	if layers <= 0 {
		layers = 1
	}
	if budget <= 0 {
		budget = 120 * layers
	}
	per := budget / layers
	var warm *Params
	var res *OptimizeResult
	for p := 1; p <= layers; p++ {
		r, err := OptimizeAngles(g, OptimizeOptions{
			Layers:         p,
			MaxEvaluations: per,
			Evaluate:       evaluate,
			WarmStart:      warm,
		})
		if err != nil {
			return nil, err
		}
		res = r
		next := InterpolateAngles(r.Params)
		warm = &next
	}
	return res, nil
}
