package main

import (
	"context"
	"errors"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
	"time"

	"hsfsim"
)

// ddHeavy is a random RX/RZZ circuit that no decision diagram compresses: on
// 14 qubits it takes the DD oracle seconds, long enough to interrupt.
func ddHeavy(n, layers int) *hsfsim.Circuit {
	rng := rand.New(rand.NewSource(5))
	c := hsfsim.NewCircuit(n)
	for q := 0; q < n; q++ {
		c.Append(hsfsim.H(q))
	}
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			c.Append(hsfsim.RX(rng.Float64(), q), hsfsim.RZZ(rng.Float64(), q, (q+1+rng.Intn(n-1))%n))
		}
	}
	return c
}

// TestBackendFlag pins -backend: dense or dd, checked once before anything
// runs. The DD oracle runs whole circuits, so an HSF method with dd is a
// usage error that points to -method schrodinger, and an empty or unknown
// name fails up front.
func TestBackendFlag(t *testing.T) {
	for _, tc := range []struct {
		name   string
		method hsfsim.Method
		useDD  bool
		errHas string // "" if accepted
	}{
		{"dense", hsfsim.Schrodinger, false, ""},
		{"dense", hsfsim.JointHSF, false, ""},
		{"dd", hsfsim.Schrodinger, true, ""},
		{"dd", hsfsim.JointHSF, false, "-method schrodinger"},
		{"dd", hsfsim.StandardHSF, false, "-method schrodinger"},
		{"", hsfsim.Schrodinger, false, "want dense or dd"},
		{"", hsfsim.JointHSF, false, "want dense or dd"},
		{"mps", hsfsim.Schrodinger, false, "want dense or dd"},
	} {
		useDD, err := parseBackend(tc.name, tc.method)
		switch {
		case tc.errHas == "" && (err != nil || useDD != tc.useDD):
			t.Errorf("-backend %q with %v: dd %v, err %v; want dd %v", tc.name, tc.method, useDD, err, tc.useDD)
		case tc.errHas != "" && (err == nil || !strings.Contains(err.Error(), tc.errHas)):
			t.Errorf("-backend %q with %v: err %v, want one naming %q", tc.name, tc.method, err, tc.errHas)
		}
	}
}

// TestSimulateDDMatchesSchrodinger checks the oracle run itself.
func TestSimulateDDMatchesSchrodinger(t *testing.T) {
	c := ddHeavy(6, 3)
	want, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.Schrodinger, MaxAmplitudes: 20})
	if err != nil {
		t.Fatal(err)
	}
	got, err := simulateDD(context.Background(), c, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range want.Amplitudes {
		if d := cmplx.Abs(got.Amplitudes[i] - a); len(got.Amplitudes) != 20 || d > 1e-12 {
			t.Fatalf("%d amplitudes, amplitude %d off by %g", len(got.Amplitudes), i, d)
		}
	}
}

// TestSimulateDDStops holds the DD oracle to -timeout and to Ctrl-C, as the
// dense path is: a run past its timeout returns hsfsim.ErrTimeout, and a
// cancelled context returns context.Canceled, both within a gate or so.
func TestSimulateDDStops(t *testing.T) {
	c := ddHeavy(14, 12)
	start := time.Now()
	if _, err := simulateDD(context.Background(), c, 16, 20*time.Millisecond); !errors.Is(err, hsfsim.ErrTimeout) {
		t.Fatalf("timeout: err = %v, want ErrTimeout", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	_, err := simulateDD(ctx, c, 16, time.Hour)
	if !errors.Is(err, context.Canceled) || errors.Is(err, hsfsim.ErrTimeout) {
		t.Fatalf("cancel: err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("stopping took %v", d)
	}
}
