package vec

import (
	"math"
	"math/rand"
	"testing"
)

// The float64 row kernels must give exactly the bits of the scalar loops
// they stand for, on the dispatched path (SIMD where the host has it) and
// on the generic one, at every length around the 4- and 8-element blocks
// and at unaligned starts.

// randF64 draws values spread over many binades, with signed zeros and
// subnormals mixed in, so that any reassociation or fused multiply-add
// would show in the low bits.
func randF64(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		switch rng.Intn(16) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = math.Copysign(0, -1)
		case 2:
			s[i] = rng.NormFloat64() * 1e-310
		default:
			s[i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(80)-40))
		}
	}
	return s
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func kernelLengths() []int {
	lengths := make([]int, 0, 48)
	for n := 0; n <= 34; n++ {
		lengths = append(lengths, n)
	}
	return append(lengths, 63, 64, 65, 419, 420, 421, 960)
}

func TestAxpyRows64MatchesScalarLoop(t *testing.T) {
	t.Logf("dispatch level: %s", Level())
	rng := rand.New(rand.NewSource(5))
	for _, n := range kernelLengths() {
		for _, nrows := range []int{0, 1, 2, 3, 4, 7} {
			off := rng.Intn(4)
			y0 := randF64(rng, n+off)[off:]
			a := randF64(rng, nrows)
			x := make([][]float64, nrows)
			for r := range x {
				x[r] = randF64(rng, n+1+off)[off:] // rows may be longer than y
			}
			want := append([]float64(nil), y0...)
			for j := range want {
				for r := range a {
					want[j] += a[r] * x[r][j]
				}
			}
			got := append([]float64(nil), y0...)
			AxpyRows64(got, a, x)
			if !sameBits(got, want) {
				t.Fatalf("AxpyRows64 n=%d rows=%d off=%d: dispatched result differs from the scalar loop", n, nrows, off)
			}
			got = append(got[:0], y0...)
			axpyRows64Generic(got, a, x)
			if !sameBits(got, want) {
				t.Fatalf("AxpyRows64 n=%d rows=%d off=%d: generic result differs from the scalar loop", n, nrows, off)
			}
		}
	}
}

func TestRot64MatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range kernelLengths() {
		off := rng.Intn(4)
		x0 := randF64(rng, n+off)[off:]
		y0 := randF64(rng, n+1+off)[off:]
		theta := rng.Float64() * 2 * math.Pi
		c, s := math.Cos(theta), math.Sin(theta)
		wantX := append([]float64(nil), x0...)
		wantY := append([]float64(nil), y0...)
		for j := range wantX {
			f := wantY[j]
			wantY[j] = s*wantX[j] + c*f
			wantX[j] = c*wantX[j] - s*f
		}
		for name, rot := range map[string]func(x, y []float64, c, s float64){"dispatched": Rot64, "generic": rot64Generic} {
			x := append([]float64(nil), x0...)
			y := append([]float64(nil), y0...)
			rot(x, y, c, s)
			if !sameBits(x, wantX) || !sameBits(y, wantY) {
				t.Fatalf("Rot64 n=%d off=%d: %s result differs from the scalar loop", n, off, name)
			}
		}
	}
}

// TestFloat64KernelsPanicOnShortRows pins the bounds contract: the assembly
// reads len(y) (len(x)) elements of every other operand unchecked, so the
// wrapper must panic first when one is shorter.
func TestFloat64KernelsPanicOnShortRows(t *testing.T) {
	y, short := make([]float64, 9), make([]float64, 8)
	for name, f := range map[string]func(){
		"AxpyRows64":      func() { AxpyRows64(y, []float64{1, 2}, [][]float64{y, short}) },
		"AxpyRows64 rows": func() { AxpyRows64(y, []float64{1, 2}, [][]float64{y}) },
		"Rot64":           func() { Rot64(y, short, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a short operand did not panic", name)
				}
			}()
			f()
		}()
	}
}
