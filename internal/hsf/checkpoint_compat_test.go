package hsf

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"testing"

	"hsfsim/internal/cut"
	"hsfsim/internal/statevec"
)

// encodeInterleavedCheckpoint serializes ck with the pre-SoA on-disk layout,
// written out field by field here rather than through WriteCheckpoint: the
// accumulator is m interleaved (re, im) float64 pairs, little-endian. The
// engine now keeps amplitudes in split real/imag planes in memory, but the
// wire format is frozen — this independent encoder is the byte-level pin.
func encodeInterleavedCheckpoint(ck *Checkpoint) []byte {
	var buf bytes.Buffer
	buf.WriteString("HSFCKP1\n")
	le := binary.LittleEndian
	b := make([]byte, 8)
	wu64 := func(v uint64) { le.PutUint64(b, v); buf.Write(b[:8]) }
	wu32 := func(v uint32) { le.PutUint32(b, v); buf.Write(b[:4]) }
	wu64(ck.PlanHash)
	wu32(uint32(ck.NumQubits))
	wu64(uint64(ck.M))
	wu32(uint32(ck.SplitLevels))
	wu64(uint64(len(ck.Prefixes)))
	for _, p := range ck.Prefixes {
		for _, t := range p {
			wu32(uint32(t))
		}
	}
	wu64(uint64(ck.PathsSimulated))
	for _, a := range ck.Acc {
		wu64(math.Float64bits(real(a)))
		wu64(math.Float64bits(imag(a)))
	}
	return buf.Bytes()
}

// TestCheckpointCrossLayoutResume is the cross-layout regression for the SoA
// refactor: a checkpoint serialized in the interleaved complex128 layout (as
// any pre-refactor build wrote it) must load on this build and resume to the
// uninterrupted amplitudes at 1e-12. The checkpoint bytes come from the
// independent encoder above, not from WriteCheckpoint, so a format drift in
// either the reader or the writer fails the test.
func TestCheckpointCrossLayoutResume(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := randomQAOAish(rng, 9, 12)
	plan, err := cut.BuildPlan(c, cut.Options{Partition: cut.Partition{CutPos: 4}, Strategy: cut.StrategyCascade})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Simulate an interrupted run: execute roughly half the prefix space and
	// snapshot it through the legacy byte layout.
	splitLevels := ChooseSplitLevels(plan, 8)
	prefixes := EnumeratePrefixes(plan, splitLevels)
	if len(prefixes) < 4 {
		t.Fatalf("want ≥ 4 prefix tasks, got %d", len(prefixes))
	}
	part, err := RunPrefixesContext(context.Background(), plan, Options{}, splitLevels, prefixes[:len(prefixes)/2])
	if err != nil {
		t.Fatal(err)
	}
	legacy := encodeInterleavedCheckpoint(part)

	// The current writer must still produce those exact bytes.
	var cur bytes.Buffer
	if err := WriteCheckpoint(&cur, part); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cur.Bytes(), legacy) {
		t.Fatalf("WriteCheckpoint drifted from the frozen interleaved layout (%d vs %d bytes)",
			cur.Len(), len(legacy))
	}

	// And the legacy bytes must resume to the uninterrupted result.
	ck, err := ReadCheckpoint(bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(plan, Options{Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	if res.PathsSimulated != full.PathsSimulated {
		t.Fatalf("resumed run simulated %d paths, full run %d", res.PathsSimulated, full.PathsSimulated)
	}
	for i := range full.Amplitudes {
		if d := cmplx.Abs(res.Amplitudes[i] - full.Amplitudes[i]); d > 1e-12 {
			t.Fatalf("amplitude %d differs by %g after cross-layout resume", i, d)
		}
	}
}

// TestCheckpointFromDDWalkerResumes resumes a checkpoint that the retired
// decision-diagram walker wrote: testdata/dd-walker.ckpt holds 256 of the 512
// paths of manyCutCircuit(10, 9) cut after qubit 4 for the first 100
// amplitudes, interrupted by an injected fault on one worker. The format never
// named the walker, so the dense walker finishes it, projected by the output
// cone the DD walker never applied, on one worker or two, to the Schrödinger
// oracle at 1e-12.
func TestCheckpointFromDDWalkerResumes(t *testing.T) {
	const m = 100
	circ := manyCutCircuit(10, 9)
	plan := buildPlan(t, circ, 4, cut.StrategyNone)
	data, err := os.ReadFile("testdata/dd-walker.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	want := schrodinger(circ)[:m]
	for _, workers := range []int{1, 2} {
		ck, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if ck.PathsSimulated != 256 || ck.M != m {
			t.Fatalf("fixture holds %d paths of %d amplitudes, want 256 of %d", ck.PathsSimulated, ck.M, m)
		}
		res, err := Run(plan, Options{Workers: workers, MaxAmplitudes: m, Resume: ck})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if res.PathsSimulated != 512 {
			t.Fatalf("%d workers: %d paths after the resume, want 512", workers, res.PathsSimulated)
		}
		if d := statevec.MaxAbsDiff(res.Amplitudes, want); d > 1e-12 {
			t.Fatalf("%d workers: resumed DD checkpoint off the oracle by %g", workers, d)
		}
	}
}
