package hsfsim_test

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"time"

	"hsfsim"
)

func bell() *hsfsim.Circuit {
	c := hsfsim.NewCircuit(2)
	c.Append(hsfsim.H(0), hsfsim.CNOT(0, 1))
	return c
}

// qaoaLike builds a seeded RZZ/RX circuit with crossing structure.
func qaoaLike(seed int64, n, edges int) *hsfsim.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := hsfsim.NewCircuit(n)
	for q := 0; q < n; q++ {
		c.Append(hsfsim.H(q))
	}
	for i := 0; i < edges; i++ {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		c.Append(hsfsim.RZZ(rng.Float64()*2, a, b))
	}
	for q := 0; q < n; q++ {
		c.Append(hsfsim.RX(0.7, q))
	}
	return c
}

func maxDiff(a, b []complex128) float64 {
	var d float64
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > d {
			d = e
		}
	}
	return d
}

func TestSimulateBellAllMethods(t *testing.T) {
	want := complex(math.Sqrt2/2, 0)
	for _, m := range []hsfsim.Method{hsfsim.Schrodinger, hsfsim.StandardHSF, hsfsim.JointHSF} {
		res, err := hsfsim.Simulate(bell(), hsfsim.Options{Method: m, CutPos: 0})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		a := res.Amplitudes
		if cmplx.Abs(a[0]-want) > 1e-12 || cmplx.Abs(a[3]-want) > 1e-12 ||
			cmplx.Abs(a[1]) > 1e-12 || cmplx.Abs(a[2]) > 1e-12 {
			t.Fatalf("%v: wrong Bell amplitudes %v", m, a)
		}
	}
}

func TestMethodsAgreeOnRandomCircuits(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c := qaoaLike(seed, 8, 12)
		ref, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.Schrodinger})
		if err != nil {
			t.Fatal(err)
		}
		std, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.StandardHSF, CutPos: 3})
		if err != nil {
			t.Fatal(err)
		}
		jnt, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.JointHSF, CutPos: 3})
		if err != nil {
			t.Fatal(err)
		}
		if d := maxDiff(ref.Amplitudes, std.Amplitudes); d > 1e-8 {
			t.Fatalf("seed %d: standard HSF diverges by %g", seed, d)
		}
		if d := maxDiff(ref.Amplitudes, jnt.Amplitudes); d > 1e-8 {
			t.Fatalf("seed %d: joint HSF diverges by %g", seed, d)
		}
		if jnt.NumPaths > std.NumPaths {
			t.Fatalf("seed %d: joint paths %d exceed standard %d", seed, jnt.NumPaths, std.NumPaths)
		}
	}
}

func TestJointReducesPathsOnCascades(t *testing.T) {
	// Star-coupled halves: every crossing RZZ shares qubit 3.
	c := hsfsim.NewCircuit(8)
	for u := 4; u < 8; u++ {
		c.Append(hsfsim.RZZ(0.3*float64(u), 3, u))
	}
	std, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.StandardHSF, CutPos: 3})
	if err != nil {
		t.Fatal(err)
	}
	jnt, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.JointHSF, CutPos: 3})
	if err != nil {
		t.Fatal(err)
	}
	if std.NumPaths != 16 {
		t.Fatalf("standard paths = %d, want 16", std.NumPaths)
	}
	if jnt.NumPaths != 2 {
		t.Fatalf("joint paths = %d, want 2", jnt.NumPaths)
	}
	if jnt.NumBlocks != 1 || jnt.NumSeparateCuts != 0 {
		t.Fatalf("blocks %d, sep %d", jnt.NumBlocks, jnt.NumSeparateCuts)
	}
	if d := maxDiff(std.Amplitudes, jnt.Amplitudes); d > 1e-9 {
		t.Fatalf("methods disagree by %g", d)
	}
}

func TestMaxAmplitudesTruncates(t *testing.T) {
	c := qaoaLike(7, 6, 8)
	full, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.Schrodinger})
	if err != nil {
		t.Fatal(err)
	}
	part, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.JointHSF, CutPos: 2, MaxAmplitudes: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Amplitudes) != 7 {
		t.Fatalf("got %d amplitudes", len(part.Amplitudes))
	}
	if d := maxDiff(part.Amplitudes, full.Amplitudes[:7]); d > 1e-8 {
		t.Fatalf("prefix mismatch %g", d)
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := hsfsim.Simulate(nil, hsfsim.Options{}); err == nil {
		t.Fatal("nil circuit accepted")
	}
	c := hsfsim.NewCircuit(2)
	c.Append(hsfsim.CNOT(0, 5)) // out of range
	if _, err := hsfsim.Simulate(c, hsfsim.Options{}); err == nil {
		t.Fatal("invalid circuit accepted")
	}
	c = bell()
	if _, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.StandardHSF, CutPos: 5}); err == nil {
		t.Fatal("out-of-range cut accepted")
	}
	if _, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.Method(42)}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestTimeoutOnStandardHSF(t *testing.T) {
	// Many separate cuts — the immediate timeout must fire.
	rng := rand.New(rand.NewSource(9))
	c := hsfsim.NewCircuit(12)
	for i := 0; i < 26; i++ {
		a := rng.Intn(6)
		b := 6 + rng.Intn(6)
		c.Append(hsfsim.RZZ(rng.Float64(), a, b), hsfsim.RX(0.3, a))
	}
	_, err := hsfsim.Simulate(c, hsfsim.Options{
		Method: hsfsim.StandardHSF, CutPos: 5, Timeout: time.Microsecond,
	})
	if err != hsfsim.ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestPathCounts(t *testing.T) {
	c := hsfsim.NewCircuit(6)
	c.Append(
		hsfsim.RZZ(0.3, 2, 3), hsfsim.RZZ(0.4, 2, 4), hsfsim.RZZ(0.5, 2, 5),
	)
	std, jnt, err := hsfsim.PathCounts(c, 2, hsfsim.BlockCascade, 0)
	if err != nil {
		t.Fatal(err)
	}
	if std != 8 || jnt != 2 {
		t.Fatalf("paths = %d/%d, want 8/2", std, jnt)
	}
}

func TestStatsReported(t *testing.T) {
	c := qaoaLike(11, 8, 14)
	res, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.JointHSF, CutPos: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCuts == 0 {
		t.Fatal("no cuts reported")
	}
	if res.NumBlocks+res.NumSeparateCuts != res.NumCuts {
		t.Fatal("cut bookkeeping inconsistent")
	}
	if res.TotalTime() < res.SimTime {
		t.Fatal("total time < sim time")
	}
	if math.Abs(res.Log2Paths-math.Log2(float64(res.NumPaths))) > 1e-9 {
		t.Fatal("Log2Paths inconsistent with NumPaths")
	}
}
