package bench

import (
	"errors"
	"fmt"
	"math"
	"time"

	"hsfsim"
	"hsfsim/internal/cut"
	"hsfsim/internal/qaoa"
)

// RunConfig controls the Table I measurement loop.
type RunConfig struct {
	// MaxAmplitudes is the number of output amplitudes (paper: 10^6).
	MaxAmplitudes int
	// Timeout bounds each standard-HSF run (paper: 1 h).
	Timeout time.Duration
	// Repetitions per method for mean/stddev (paper: 5).
	Repetitions int
	// Workers bounds parallelism (0: all CPUs).
	Workers int
	// SkipSchrodingerAbove skips the Schrödinger baseline for circuits with
	// more qubits than this (memory guard); 0 selects 26.
	SkipSchrodingerAbove int
}

// timing is a mean/stddev pair in seconds.
type timing struct {
	Mean, Std float64
}

func summarize(samples []float64) timing {
	if len(samples) == 0 {
		return timing{}
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean := sum / float64(len(samples))
	var varsum float64
	for _, s := range samples {
		varsum += (s - mean) * (s - mean)
	}
	std := 0.0
	if len(samples) > 1 {
		std = math.Sqrt(varsum / float64(len(samples)-1))
	}
	return timing{Mean: mean, Std: std}
}

// MethodResult aggregates one method's measurements on one instance.
type MethodResult struct {
	FullTime timing // preprocessing + simulation
	SimTime  timing // simulation only (Table I's second line)
	Paths    float64
	TimedOut bool
	Skipped  bool
}

// Table1Row is one instance's measurements across the three methods.
type Table1Row struct {
	Name        string
	Schrodinger MethodResult
	Standard    MethodResult
	Joint       MethodResult
	// SJ = Schrödinger full time / joint full time;
	// TJ = standard full time / joint full time (a lower bound when the
	// standard run timed out, as in the paper).
	SJ, TJ       float64
	TJLowerBound bool
}

// RunTable1Instance measures one QAOA instance with all three methods.
func RunTable1Instance(spec qaoa.InstanceSpec, cfg RunConfig) (*Table1Row, error) {
	if cfg.Repetitions <= 0 {
		cfg.Repetitions = 1
	}
	skipAbove := cfg.SkipSchrodingerAbove
	if skipAbove <= 0 {
		skipAbove = 26
	}
	inst, err := spec.Generate(qaoa.SingleLayer())
	if err != nil {
		return nil, err
	}
	row := &Table1Row{Name: spec.Name}

	run := func(method hsfsim.Method) (MethodResult, error) {
		var mr MethodResult
		if method == hsfsim.Schrodinger && spec.NumQubits() > skipAbove {
			mr.Skipped = true
			return mr, nil
		}
		var fulls, sims []float64
		for rep := 0; rep < cfg.Repetitions; rep++ {
			res, err := hsfsim.Simulate(inst.Circuit, hsfsim.Options{
				Method:        method,
				CutPos:        spec.CutPos(),
				MaxAmplitudes: cfg.MaxAmplitudes,
				Workers:       cfg.Workers,
				Timeout:       cfg.Timeout,
			})
			if errors.Is(err, hsfsim.ErrTimeout) {
				mr.TimedOut = true
				break
			}
			if err != nil {
				return mr, err
			}
			fulls = append(fulls, res.TotalTime().Seconds())
			sims = append(sims, res.SimTime.Seconds())
			mr.Paths = res.Log2Paths
		}
		mr.FullTime = summarize(fulls)
		mr.SimTime = summarize(sims)
		return mr, nil
	}

	if row.Schrodinger, err = run(hsfsim.Schrodinger); err != nil {
		return nil, fmt.Errorf("bench: %s schrodinger: %w", spec.Name, err)
	}
	if row.Standard, err = run(hsfsim.StandardHSF); err != nil {
		return nil, fmt.Errorf("bench: %s standard: %w", spec.Name, err)
	}
	if row.Joint, err = run(hsfsim.JointHSF); err != nil {
		return nil, fmt.Errorf("bench: %s joint: %w", spec.Name, err)
	}
	// Path counts are known even when the run timed out.
	std, jnt, err := pathLogs(spec)
	if err != nil {
		return nil, err
	}
	row.Standard.Paths = std
	row.Joint.Paths = jnt

	if j := row.Joint.FullTime.Mean; j > 0 {
		if !row.Schrodinger.Skipped && !row.Schrodinger.TimedOut {
			row.SJ = row.Schrodinger.FullTime.Mean / j
		}
		if row.Standard.TimedOut {
			row.TJ = cfg.Timeout.Seconds() / j
			row.TJLowerBound = true
		} else {
			row.TJ = row.Standard.FullTime.Mean / j
		}
	}
	return row, nil
}

func pathLogs(spec qaoa.InstanceSpec) (std, jnt float64, err error) {
	inst, err := spec.Generate(qaoa.SingleLayer())
	if err != nil {
		return 0, 0, err
	}
	p := cut.Partition{CutPos: spec.CutPos()}
	sp, err := cut.BuildPlan(inst.Circuit, cut.Options{Partition: p, Strategy: cut.StrategyNone})
	if err != nil {
		return 0, 0, err
	}
	jp, err := cut.BuildPlan(inst.Circuit, cut.Options{Partition: p, Strategy: cut.StrategyCascade})
	if err != nil {
		return 0, 0, err
	}
	return sp.Log2Paths(), jp.Log2Paths(), nil
}

// RunTable1 measures every instance.
func RunTable1(specs []qaoa.InstanceSpec, cfg RunConfig) ([]*Table1Row, error) {
	var rows []*Table1Row
	for _, s := range specs {
		r, err := RunTable1Instance(s, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// RenderTable1 formats the measurements like the paper's Table I: per
// instance the first line shows full times (preprocessing included), the
// second line simulation-only times.
func RenderTable1(rows []*Table1Row, cfg RunConfig) string {
	t := &table{header: []string{
		"Circuit", "Schrödinger (s)", "Standard HSF (s)", "# Paths", "Joint HSF (s)", "# Paths", "S/J", "T/J",
	}}
	fmtTiming := func(m MethodResult) string {
		if m.Skipped {
			return "skipped"
		}
		if m.TimedOut {
			return fmt.Sprintf("timed out (%s)", cfg.Timeout)
		}
		return fmt.Sprintf("%s (%.3f)", fmtDur(m.FullTime.Mean), m.FullTime.Std)
	}
	fmtSim := func(m MethodResult) string {
		if m.Skipped || m.TimedOut {
			return ""
		}
		return fmt.Sprintf("%s (%.3f)", fmtDur(m.SimTime.Mean), m.SimTime.Std)
	}
	for _, r := range rows {
		sj := "-"
		if r.SJ > 0 {
			sj = fmt.Sprintf("%.3f", r.SJ)
		}
		tj := "-"
		if r.TJ > 0 {
			tj = fmt.Sprintf("%.3f", r.TJ)
			if r.TJLowerBound {
				tj = ">= " + tj
			}
		}
		t.add(r.Name,
			fmtTiming(r.Schrodinger),
			fmtTiming(r.Standard), fmtPaths(r.Standard.Paths),
			fmtTiming(r.Joint), fmtPaths(r.Joint.Paths),
			sj, tj)
		t.add("",
			fmtSim(r.Schrodinger),
			fmtSim(r.Standard), "",
			fmtSim(r.Joint), "",
			"", "")
	}
	head := fmt.Sprintf("Table I: QAOA runtimes (first %d amplitudes, %d repetitions, timeout %s)\n",
		cfg.MaxAmplitudes, cfg.Repetitions, cfg.Timeout)
	return head + t.String()
}

// Table2Row reports one instance's specification (paper Table II).
type Table2Row struct {
	Name          string
	Qubits        int
	CutPos        int
	TwoQubitGates int
	SizeA, SizeB  int
	PInter        float64
	PIntra        float64
	Blocks        int
	SepInPlan     int
	SepCuts       int // total crossing gates
}

// RunTable2 computes the specification rows.
func RunTable2(specs []qaoa.InstanceSpec) ([]*Table2Row, error) {
	var rows []*Table2Row
	for _, s := range specs {
		inst, err := s.Generate(qaoa.SingleLayer())
		if err != nil {
			return nil, err
		}
		p := cut.Partition{CutPos: s.CutPos()}
		plan, err := cut.BuildPlan(inst.Circuit, cut.Options{Partition: p, Strategy: cut.StrategyCascade})
		if err != nil {
			return nil, err
		}
		rows = append(rows, &Table2Row{
			Name:          s.Name,
			Qubits:        s.NumQubits(),
			CutPos:        s.CutPos(),
			TwoQubitGates: inst.Circuit.NumTwoQubitGates(),
			SizeA:         s.SizeA,
			SizeB:         s.SizeB,
			PInter:        s.PInter,
			PIntra:        s.PIntra,
			Blocks:        plan.NumBlocks(),
			SepInPlan:     plan.NumSeparateCuts(),
			SepCuts:       len(cut.CrossingGateIndices(inst.Circuit, p)),
		})
	}
	return rows, nil
}

// RenderTable2 formats the specification table.
func RenderTable2(rows []*Table2Row) string {
	t := &table{header: []string{
		"Circuit", "q", "cut pos.", "# 2-qubit gates", "sizes", "p_inter", "p_intra", "blocks + sep.", "sep. cuts",
	}}
	for _, r := range rows {
		t.add(r.Name,
			fmt.Sprintf("%d", r.Qubits),
			fmt.Sprintf("%d", r.CutPos),
			fmt.Sprintf("%d", r.TwoQubitGates),
			fmt.Sprintf("[%d,%d]", r.SizeA, r.SizeB),
			fmt.Sprintf("%.2f", r.PInter),
			fmt.Sprintf("%.2f", r.PIntra),
			fmt.Sprintf("%d+%d", r.Blocks, r.SepInPlan),
			fmt.Sprintf("%d", r.SepCuts))
	}
	return "Table II: QAOA instance specifications\n" + t.String()
}
