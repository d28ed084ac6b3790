package vec

// Float64 row kernels for training: the covariance accumulation and the
// eigensolver's row updates. Unlike the float32 distance kernels, which may
// reassociate, these must leave every element with exactly the bits of the
// scalar Go loop they replace. They only vectorise across elements: each
// element still gets its products and sums one at a time, in loop order,
// each rounded on its own. The SIMD versions therefore multiply and add
// with separate instructions, never a fused multiply-add, as Go's amd64
// scalar code does.

// AxpyRows64 adds a[r]·x[r] to y for r = 0, 1, …, len(a)−1 in turn, so that
// y[j] ends up exactly as `for r := range a { y[j] += a[r] * x[r][j] }`
// leaves it. x must hold at least len(a) rows, each at least len(y) long.
//
// A subtraction y[j] -= b·x[j] is the same operation with a = −b: negation
// is exact, so (−b)·x[j] is −(b·x[j]) and adding it is subtracting b·x[j],
// bit for bit.
func AxpyRows64(y, a []float64, x [][]float64) {
	if len(y) == 0 {
		return
	}
	for r := range a {
		_ = x[r][len(y)-1] // bounds: every row must cover y before the kernel runs unchecked
	}
	axpyRows64Impl(y, a, x)
}

// axpyRows64Generic is AxpyRows64 row by row: every element gets the same
// products in the same order as with the rows interleaved.
func axpyRows64Generic(y, a []float64, x [][]float64) {
	for r, ar := range a {
		xr := x[r][:len(y)]
		for j := range y {
			y[j] += ar * xr[j]
		}
	}
}

// Rot64 applies the plane rotation (c, s) to the row pair (x, y):
// x[j], y[j] = c·x[j] − s·y[j], s·x[j] + c·y[j], every product and sum
// rounded on its own. y must be at least as long as x.
func Rot64(x, y []float64, c, s float64) {
	if len(x) == 0 {
		return
	}
	_ = y[len(x)-1] // bounds: y must cover x before the kernel runs unchecked
	rot64Impl(x, y, c, s)
}

func rot64Generic(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for j, xj := range x {
		yj := y[j]
		y[j] = s*xj + c*yj
		x[j] = c*xj - s*yj
	}
}
