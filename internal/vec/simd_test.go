package vec

// Equivalence tests between the dispatched kernels (SIMD where the host
// supports it) and the portable generic kernels. SIMD reassociates the
// float32 accumulation, so agreement is tolerance-based: the absolute
// difference must stay within relTol of the term-magnitude scale, which
// is robust even when cancellation drives the true dot product toward
// zero. On hosts without SIMD the dispatched and generic kernels are the
// same function and the tests degenerate to exact self-comparison, so
// they are meaningful (not vacuous) only on SIMD hosts — CI runs them on
// both.

import (
	"math"
	"math/rand"
	"testing"
)

const relTol = 1e-4

// termScale returns the float64 sum of |a_i|*|b_i| (dot) or (a_i-b_i)^2
// (l2): the magnitude against which rounding differences are judged.
func dotScale(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += math.Abs(float64(a[i]) * float64(b[i]))
	}
	return s
}

func l2Scale(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

func agree(got, want float32, scale float64) bool {
	g, w := float64(got), float64(want)
	if math.IsNaN(w) {
		return math.IsNaN(g)
	}
	if math.IsInf(w, 0) {
		return g == w || math.IsNaN(g) // Inf sums may round differently under FMA
	}
	return math.Abs(g-w) <= relTol*math.Max(1, scale)
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// TestSIMDEquivalenceExhaustiveTails pins the tail handling: every length
// 0..64 plus lengths around the 8/32-float (amd64) and 4/16-float (arm64)
// block boundaries, each at aligned and unaligned (a[1:], a[3:]) starts.
// At level generic (`-tags noasm`, or a host without SIMD) the dispatched
// kernels are the generic ones, so they must agree bit for bit.
func TestSIMDEquivalenceExhaustiveTails(t *testing.T) {
	t.Logf("dispatch level: %s", Level())
	exact := Level() == "generic"
	rng := rand.New(rand.NewSource(1))
	lengths := make([]int, 0, 96)
	for n := 0; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 95, 96, 97, 127, 128, 129, 255, 256, 257, 511, 512, 513, 1023, 1024)
	for _, n := range lengths {
		for _, off := range []int{0, 1, 3} {
			a := randSlice(rng, n+off)[off:]
			b := randSlice(rng, n+off)[off:]
			if gd, sd := DotGeneric(a, b), Dot(a, b); !agree(sd, gd, dotScale(a, b)) || exact && sd != gd {
				t.Errorf("Dot n=%d off=%d: simd %v vs generic %v", n, off, sd, gd)
			}
			if gl, sl := L2SqGeneric(a, b), L2Sq(a, b); !agree(sl, gl, l2Scale(a, b)) || exact && sl != gl {
				t.Errorf("L2Sq n=%d off=%d: simd %v vs generic %v", n, off, sl, gl)
			}
		}
	}
}

// TestSIMDEquivalenceRandomLengths covers random lengths in [0, 1024] at
// random offsets, including the ranged/flat fused variants, which must be
// bit-identical to the plain kernels on the equivalent subslices.
func TestSIMDEquivalenceRandomLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 500; iter++ {
		n := rng.Intn(1025)
		off := rng.Intn(8)
		a := randSlice(rng, n+off)[off:]
		b := randSlice(rng, n+off)[off:]
		if gd, sd := DotGeneric(a, b), Dot(a, b); !agree(sd, gd, dotScale(a, b)) {
			t.Fatalf("Dot n=%d off=%d: simd %v vs generic %v", n, off, sd, gd)
		}
		if gl, sl := L2SqGeneric(a, b), L2Sq(a, b); !agree(sl, gl, l2Scale(a, b)) {
			t.Fatalf("L2Sq n=%d off=%d: simd %v vs generic %v", n, off, sl, gl)
		}
		if n == 0 {
			continue
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo)
		if got, want := DotRange(a, b, lo, hi), Dot(a[lo:hi], b[lo:hi]); got != want {
			t.Fatalf("DotRange(%d,%d) = %v, want %v (must be bit-identical)", lo, hi, got, want)
		}
		if got, want := L2SqRangeFlat(a, b, 0, lo, hi), L2Sq(a[lo:hi], b[lo:hi]); got != want {
			t.Fatalf("L2SqRangeFlat(%d,%d) = %v, want %v (must be bit-identical)", lo, hi, got, want)
		}
	}
}

// TestSIMDNaNInfPropagation places non-finite values in every region the
// kernels treat differently (wide block, narrow block, scalar tail) and
// checks the dispatched kernel propagates them like the generic one.
func TestSIMDNaNInfPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	const n = 77 // 2 wide blocks + 1 narrow block + scalar tail on amd64
	for _, idx := range []int{0, 31, 33, 63, 70, 76} {
		for _, v := range []float32{nan, inf, -inf} {
			a := randSlice(rng, n)
			b := randSlice(rng, n)
			a[idx] = v
			if gd, sd := DotGeneric(a, b), Dot(a, b); !agree(sd, gd, dotScale(a, b)) {
				t.Errorf("Dot a[%d]=%v: simd %v vs generic %v", idx, v, sd, gd)
			}
			if gl, sl := L2SqGeneric(a, b), L2Sq(a, b); !agree(sl, gl, l2Scale(a, b)) {
				t.Errorf("L2Sq a[%d]=%v: simd %v vs generic %v", idx, v, sl, gl)
			}
			// Same non-finite value in both inputs: L2Sq sees Inf-Inf = NaN.
			b[idx] = v
			if gl, sl := L2SqGeneric(a, b), L2Sq(a, b); !agree(sl, gl, l2Scale(a, b)) {
				t.Errorf("L2Sq a[%d]=b[%d]=%v: simd %v vs generic %v", idx, idx, v, sl, gl)
			}
		}
	}
}

// TestKernelPanicsOnShortB pins the bounds contract: the assembly reads
// len(a) floats from b without checks, so the wrapper must panic (like
// the pure-Go kernels always did) before dispatch when b is shorter.
func TestKernelPanicsOnShortB(t *testing.T) {
	a := make([]float32, 16)
	b := make([]float32, 15)
	for name, f := range map[string]func([]float32, []float32) float32{"Dot": Dot, "L2Sq": L2Sq} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(len 16, len 15) did not panic", name)
				}
			}()
			f(a, b)
		}()
	}
}

// FuzzSIMDEquivalence feeds arbitrary lengths, offsets and values (decoded
// to a bounded range so FMA-vs-scalar overflow behaviour cannot dominate;
// non-finite inputs are pinned by TestSIMDNaNInfPropagation) through both
// kernel paths and requires 1e-4 relative agreement.
func FuzzSIMDEquivalence(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(1))
	f.Add(make([]byte, 300), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		vals := make([]float32, 0, len(data)/2)
		for i := 0; i+1 < len(data) && len(vals) < 4096; i += 2 {
			u := uint16(data[i]) | uint16(data[i+1])<<8
			vals = append(vals, float32(u)/8192-4) // [-4, 4)
		}
		skip := int(off % 8)
		if len(vals) < 2*skip {
			return
		}
		half := len(vals) / 2
		a := vals[skip:half]
		b := vals[half+skip : 2*half]
		if gd, sd := DotGeneric(a, b), Dot(a, b); !agree(sd, gd, dotScale(a, b)) {
			t.Errorf("Dot n=%d off=%d: simd %v vs generic %v", len(a), skip, sd, gd)
		}
		if gl, sl := L2SqGeneric(a, b), L2Sq(a, b); !agree(sl, gl, l2Scale(a, b)) {
			t.Errorf("L2Sq n=%d off=%d: simd %v vs generic %v", len(a), skip, sl, gl)
		}
	})
}
