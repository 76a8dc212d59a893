package hsfsim

import (
	"encoding/json"
	"testing"
)

// telemetryTestCircuit builds a small circuit with crossing RZZ cascades so
// both HSF methods produce a multi-path plan at CutPos 2.
func telemetryTestCircuit() *Circuit {
	c := NewCircuit(6)
	for q := 0; q < 6; q++ {
		c.Append(H(q))
	}
	c.Append(RZZ(0.3, 0, 3), RZZ(0.7, 1, 4), RX(0.2, 1), RZZ(0.9, 2, 5))
	return c
}

// TestSimulateTelemetryReport checks the public surface: Options.Telemetry
// populates Result.Report, and the report's path/segment/kernel-class totals
// reconcile with the Result (the -report CLI flag serializes exactly this).
func TestSimulateTelemetryReport(t *testing.T) {
	for _, method := range []Method{StandardHSF, JointHSF} {
		rec := NewTelemetryRecorder()
		res, err := Simulate(telemetryTestCircuit(), Options{
			Method: method, CutPos: 2, Telemetry: rec,
		})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if res.Report == nil {
			t.Fatalf("%v: Result.Report not populated", method)
		}
		rep := res.Report
		if rep.Paths.Simulated != res.PathsSimulated {
			t.Fatalf("%v: report simulated %d != Result.PathsSimulated %d",
				method, rep.Paths.Simulated, res.PathsSimulated)
		}
		if rep.Paths.Total != int64(res.NumPaths) {
			t.Fatalf("%v: report total %d != Result.NumPaths %d", method, rep.Paths.Total, res.NumPaths)
		}
		if rep.Counters.Leaves != res.PathsSimulated {
			t.Fatalf("%v: leaves %d != paths simulated %d", method, rep.Counters.Leaves, res.PathsSimulated)
		}
		if len(rep.Segments) == 0 || len(rep.KernelClasses) == 0 {
			t.Fatalf("%v: missing segment or class stats: %+v", method, rep)
		}
		var spans []string
		for _, s := range rep.Spans {
			spans = append(spans, s.Name)
		}
		if len(spans) < 2 {
			t.Fatalf("%v: want plan+compile spans, got %v", method, spans)
		}
		if _, err := json.Marshal(rep); err != nil {
			t.Fatalf("%v: report not serializable: %v", method, err)
		}
	}
}

// TestSimulateTelemetrySchrodinger checks the baseline path: one "path", one
// sweep timing per compiled step, and a kernel-class census of the source
// gates — exact when fusion is off — in which the gates peeled into the
// product-state prologue and the members of a phase step still count, each in
// its own class.
func TestSimulateTelemetrySchrodinger(t *testing.T) {
	// 14 qubits: one more than a sweep tile, so the five RZZ reaching qubit
	// 13 compile to one phase step — the first step, which writes the product
	// state the H layer prepares, and must still be timed — and RX to one
	// tiled step.
	wide := NewCircuit(14)
	for q := 0; q < 14; q++ {
		wide.Append(H(q))
	}
	for q := 0; q < 5; q++ {
		wide.Append(RZZ(0.1*float64(q+1), q, 13))
	}
	wide.Append(RX(0.2, 1))
	for _, tc := range []struct {
		c               *Circuit
		steps           int64
		dense, diagonal int64
	}{
		{telemetryTestCircuit(), 1, 7, 3},
		{wide, 2, 15, 5},
	} {
		rec := NewTelemetryRecorder()
		res, err := Simulate(tc.c, Options{Method: Schrodinger, FusionMaxQubits: -1, Telemetry: rec})
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Report
		if rep == nil {
			t.Fatal("Result.Report not populated")
		}
		if rep.Paths.Simulated != 1 || rep.Paths.Total != 1 {
			t.Fatalf("paths = %+v, want 1/1", rep.Paths)
		}
		var classTotal int64
		for _, n := range rep.KernelClasses {
			classTotal += n
		}
		if want := int64(len(tc.c.Gates)); classTotal != want {
			t.Fatalf("kernel-class census = %d, want %d (one per gate, fusion off)", classTotal, want)
		}
		if rep.KernelClasses["dense"] != tc.dense || rep.KernelClasses["diagonal"] != tc.diagonal {
			t.Fatalf("census %v, want %d dense and %d diagonal", rep.KernelClasses, tc.dense, tc.diagonal)
		}
		if rep.SegmentSweep.Count != tc.steps || int64(len(rep.Segments)) != tc.steps {
			t.Fatalf("%d sweep timings over %d steps, want one for each of %d compiled steps",
				rep.SegmentSweep.Count, len(rep.Segments), tc.steps)
		}
	}
}

// TestSimulateWithoutTelemetry pins that the default path stays untouched.
func TestSimulateWithoutTelemetry(t *testing.T) {
	res, err := Simulate(telemetryTestCircuit(), Options{Method: JointHSF, CutPos: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != nil {
		t.Fatalf("Report should be nil without Options.Telemetry")
	}
}
