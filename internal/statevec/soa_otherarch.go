//go:build !purego && !amd64 && !arm64

package statevec

// No assembly arm on this architecture: the span arm is the best candidate.
func archArms() []kernelOps {
	return nil
}

// archFold is never reached: the span and scalar arms fold in Go.
func archFold(foldBody, *foldOp) { panic("statevec: no assembly fold on this architecture") }
