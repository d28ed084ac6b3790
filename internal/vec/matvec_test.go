package vec

import (
	"math/rand"
	"testing"
)

// matVecRef is the float64 reference mat-vec MatVec is judged against: the
// accumulation the data plane used before rotations became float32.
func matVecRef(rot []float32, dim int, x []float32) []float64 {
	out := make([]float64, len(rot)/dim)
	for i := range out {
		out[i] = Dot64(rot[i*dim:(i+1)*dim], x)
	}
	return out
}

// checkMatVec runs MatVec on a rows x dim matrix and requires every output
// to agree with the float64 reference within relTol of the row's term
// magnitude, and to be bit-identical to the dispatched Dot of that row.
func checkMatVec(t *testing.T, rot []float32, rows, dim int, x []float32) {
	t.Helper()
	got := make([]float32, rows)
	MatVec(got, rot, dim, x)
	want := matVecRef(rot, dim, x)
	for i := range got {
		row := rot[i*dim : (i+1)*dim]
		if !agree(got[i], float32(want[i]), dotScale(row, x)) {
			t.Errorf("rows=%d dim=%d: out[%d] = %v, float64 reference %v", rows, dim, i, got[i], want[i])
		}
		if d := Dot(row, x); got[i] != d {
			t.Errorf("rows=%d dim=%d: out[%d] = %v, Dot of the row = %v (must be bit-identical)", rows, dim, i, got[i], d)
		}
	}
}

// TestMatVec covers the dimensions around the kernels' 8- and 32-float
// blocks plus the benchmark's (420) and GIST's (960), square — a rotation —
// and with fewer rows than columns.
func TestMatVec(t *testing.T) {
	t.Logf("dispatch level: %s", Level())
	rng := rand.New(rand.NewSource(5))
	for _, dim := range []int{1, 7, 8, 31, 32, 33, 420, 960} {
		x := randSlice(rng, dim)
		checkMatVec(t, randSlice(rng, dim*dim), dim, dim, x)
		checkMatVec(t, randSlice(rng, 3*dim), 3, dim, x)
	}
	MatVec(nil, nil, 4, make([]float32, 4)) // zero rows: nothing to write
}

// TestMatVecPanicsOnShapeMismatch pins the contract callers rely on when
// they validate lengths once up front: a wrong shape is a bug, not a
// silently short read by the assembly kernel.
func TestMatVecPanicsOnShapeMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"short x":   func() { MatVec(make([]float32, 2), make([]float32, 8), 4, make([]float32, 3)) },
		"long x":    func() { MatVec(make([]float32, 2), make([]float32, 8), 4, make([]float32, 5)) },
		"short rot": func() { MatVec(make([]float32, 2), make([]float32, 7), 4, make([]float32, 4)) },
		"long dst":  func() { MatVec(make([]float32, 3), make([]float32, 8), 4, make([]float32, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: MatVec did not panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzMatVecEquivalence decodes arbitrary bytes into a rows x dim matrix
// and a vector (values bounded as in FuzzSIMDEquivalence) and holds MatVec
// to checkMatVec's two properties.
func FuzzMatVecEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, uint8(1))
	f.Add(make([]byte, 300), uint8(7))
	f.Add(make([]byte, 4096), uint8(33))
	f.Fuzz(func(t *testing.T, data []byte, d uint8) {
		dim := int(d%64) + 1
		vals := make([]float32, 0, len(data)/2)
		for i := 0; i+1 < len(data) && len(vals) < 4096; i += 2 {
			u := uint16(data[i]) | uint16(data[i+1])<<8
			vals = append(vals, float32(u)/8192-4) // [-4, 4)
		}
		rows := len(vals)/dim - 1 // the first dim values are x
		if rows < 0 {
			return
		}
		checkMatVec(t, vals[dim:dim+rows*dim], rows, dim, vals[:dim])
	})
}
