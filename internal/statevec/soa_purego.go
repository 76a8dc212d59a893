//go:build purego

package statevec

// Fallback build (`-tags purego`): the only arm is the plain scalar
// reference one — spanMin=0 disables span dispatch entirely so the kernels
// run their inline scalar fallback loops, and allocation needs no alignment
// because nothing assumes it. This arm is the portability floor and the
// semantics oracle the parity suite pins every other arm against.

func buildArms() []kernelOps {
	return []kernelOps{scalarArm()}
}

func alignedFloats(n int) []float64 {
	return make([]float64, n)
}

// archFold is never reached: the scalar arm folds in Go.
func archFold(foldBody, *foldOp) { panic("statevec: no assembly fold in a purego build") }
