package vec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// pruneRowsRef is PruneRows' reference: a Go loop over Dot. It returns,
// in order, the ids kept and their c = 2·Dot.
func pruneRowsRef(q, pre []float32, ids []int32, norms, fac []float32, qNorm, bound, tau float32) ([]int32, []float32) {
	var keep []int32
	var c2 []float32
	for _, id := range ids {
		c := 2 * Dot(q, pre[int(id)*len(q):int(id+1)*len(q)])
		b := bound
		if fac != nil {
			b = float32(bound * fac[id])
		}
		if !((norms[id]+qNorm)-c-b > tau) {
			keep, c2 = append(keep, id), append(c2, c)
		}
	}
	return keep, c2
}

// checkPruneRows runs PruneRows on ids and fails t unless it keeps what
// pruneRowsRef keeps, in order, with the bits of each c, and leaves the 8
// sentinels past len(ids) in keep and c2 as they were. It returns the kept
// ids and their c.
func checkPruneRows(t *testing.T, what string, q, pre []float32, ids []int32, norms, fac []float32, qNorm, bound, tau float32, tab []float32, stride int) ([]int32, []float32) {
	t.Helper()
	keep, c2 := make([]int32, len(ids)+8), make([]float32, len(ids)+8)
	for i := len(ids); i < len(keep); i++ {
		keep[i], c2[i] = -7, 42
	}
	n := PruneRows(q, pre, ids, norms, fac, qNorm, bound, tau, tab, stride, keep, c2)
	want, wantC := pruneRowsRef(q, pre, ids, norms, fac, qNorm, bound, tau)
	if !slices.Equal(keep[:n], want) || !slices.EqualFunc(c2[:n], wantC, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
		t.Fatalf("%s τ %v, %d ids: kept %v / %v, reference %v / %v", what, tau, len(ids), keep[:n], c2[:n], want, wantC)
	}
	for i := len(ids); i < len(keep); i++ {
		if keep[i] != -7 || c2[i] != 42 {
			t.Fatalf("%s τ %v, %d ids: wrote keep or c2 at %d, past len(ids)", what, tau, len(ids), i)
		}
	}
	return keep[:n], c2[:n]
}

// TestPruneRowsMatchesReference holds PruneRows to a Go loop over Dot:
// the same ids kept, in order, with the bits of their 2·Dot, for ids
// repeated and out of order and for none at all; τ of −Inf, +Inf, at
// quantiles and exactly at an id's (norms + qNorm) − c − bound·fac, which
// keeps it, as does a NaN estimate. It does so with no factor (ddc-res's
// test, bound subtracted as it is), with an all-ones factor, which keeps and
// hands back exactly what no factor does, and with random factors (exact's
// prefix bound). A bad id or short input or output panics before the
// kernel reads anything, and a call allocates nothing.
//
// At widths 32 and 64, where the amd64 kernel decides 8 ids a step, it
// runs every length of ids from 0 to 64, so full groups and every tail
// length; a NaN norm in each lane of a group; all-kept and all-pruned
// groups, duplicate ids within a group and a group of one id; and zero,
// negative-zero and random queries against zero, negative-zero and
// all-negative rows, so c's sign of zero must be Dot's. No call writes past
// len(ids) in keep or c2.
func TestPruneRowsMatchesReference(t *testing.T) {
	t.Logf("dispatch level: %s", Level())
	rng := rand.New(rand.NewSource(6))
	const rows = 37
	ids := []int32{5, 0, 36, 5, 17, 1, 36, 2, 9, 9, 30, 0, 3, 22, 14, 8}
	for _, dim := range []int{1, 7, 8, 31, 32, 33, 64} {
		stride := dim + 5
		q, pre, tab := randSlice(rng, dim), randSlice(rng, rows*dim), randSlice(rng, rows*stride)
		norms := make([]float32, rows)
		for i := range norms {
			norms[i] = 4 * rng.Float32()
		}
		norms[3] = float32(math.NaN())
		ones, random := make([]float32, rows), make([]float32, rows)
		for i := range ones {
			ones[i], random[i] = 1, 2*rng.Float32()
		}
		const qNorm, bound = 1.5, 0.25
		// kept[f] records, per τ and block, what factor f kept and its c.
		kept := map[string][]float32{}
		for _, f := range []struct {
			name string
			fac  []float32
		}{{"nil", nil}, {"ones", ones}, {"random", random}} {
			fac := f.fac
			est := func(id int32) (float32, float32) {
				c := 2 * Dot(q, pre[int(id)*dim:int(id+1)*dim])
				if fac == nil {
					return c, (norms[id] + qNorm) - c - bound
				}
				return c, (norms[id] + qNorm) - c - float32(bound*fac[id])
			}
			var vals []float32
			for _, id := range ids {
				if _, v := est(id); !math.IsNaN(float64(v)) {
					vals = append(vals, v)
				}
			}
			slices.Sort(vals)
			taus := []float32{float32(math.Inf(-1)), float32(math.Inf(1)), vals[len(vals)/2], vals[len(vals)/10], vals[len(vals)*9/10]}
			keep, c2 := make([]int32, len(ids)), make([]float32, len(ids))
			for ti, tau := range taus {
				for bi, blk := range [][]int32{ids, ids[3:9], nil} {
					what := fmt.Sprintf("dim %d fac %s", dim, f.name)
					got, gotC := checkPruneRows(t, what, q, pre, blk, norms, fac, qNorm, bound, tau, tab, stride)
					if slices.Contains(blk, 3) && !slices.Contains(got, 3) {
						t.Fatalf("%s τ %v: a NaN estimate was pruned", what, tau)
					}
					if f.name == "random" {
						continue
					}
					key := fmt.Sprint(ti, bi)
					pairs := make([]float32, 0, 2*len(got))
					for i, id := range got {
						pairs = append(pairs, float32(id), gotC[i])
					}
					if prev, ok := kept[key]; ok && !slices.EqualFunc(prev, pairs, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
						t.Fatalf("dim %d τ %v: an all-ones factor kept %v, no factor %v", dim, tau, pairs, prev)
					}
					kept[key] = pairs
				}
			}
			for _, id := range ids[:4] {
				_, v := est(id)
				if n := PruneRows(q, pre, []int32{id}, norms, fac, qNorm, bound, v, tab, stride, keep, c2); n != 1 {
					t.Errorf("dim %d fac %s: τ equal to id %d's estimate less the bound pruned it", dim, f.name, id)
				}
			}
			if a := testing.AllocsPerRun(100, func() { PruneRows(q, pre, ids, norms, fac, qNorm, bound, vals[0], tab, stride, keep, c2) }); a != 0 {
				t.Errorf("dim %d fac %s: PruneRows allocates %v times per call", dim, f.name, a)
			}
		}
		keep, c2 := make([]int32, len(ids)), make([]float32, len(ids))
		for name, f := range map[string]func(){
			"id past the table": func() { PruneRows(q, pre, []int32{3, rows}, norms, nil, 0, 0, 0, tab, stride, keep, c2) },
			"negative id":       func() { PruneRows(q, pre, []int32{-1}, norms, nil, 0, 0, 0, tab, stride, keep, c2) },
			"short pre":         func() { PruneRows(q, pre[:rows*dim-1], []int32{rows - 1}, norms, nil, 0, 0, 0, tab, stride, keep, c2) },
			"short norms":       func() { PruneRows(q, pre, []int32{rows - 1}, norms[:rows-1], nil, 0, 0, 0, tab, stride, keep, c2) },
			"short fac":         func() { PruneRows(q, pre, []int32{rows - 1}, norms, random[:rows-1], 0, 0, 0, tab, stride, keep, c2) },
			"empty fac":         func() { PruneRows(q, pre, []int32{0}, norms, random[:0], 0, 0, 0, tab, stride, keep, c2) },
			"short next": func() {
				PruneRows(q, pre, []int32{rows - 1}, norms, nil, 0, 0, 0, tab[:(rows-1)*stride], stride, keep, c2)
			},
			"short keep": func() { PruneRows(q, pre, ids, norms, nil, 0, 0, 0, tab, stride, keep[:len(ids)-1], c2) },
			"short c2":   func() { PruneRows(q, pre, ids, norms, nil, 0, 0, 0, tab, stride, keep, c2[:len(ids)-1]) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("dim %d, %s: PruneRows did not panic", dim, name)
					}
				}()
				f()
			}()
		}
		PruneRows(q, pre, []int32{rows - 1}, norms, nil, 0, 0, 0, tab[:(rows-1)*stride+1], stride, keep, c2) // next reaches the last row: no panic
	}
	negZero := float32(math.Copysign(0, -1))
	for _, width := range []int{32, 64} {
		const rows, nanID = 24, 7
		stride := width + 3
		pre, tab := randSlice(rng, rows*width), randSlice(rng, rows*stride)
		for j := 0; j < width; j++ { // rows 0, 1, 2: zeros, negative zeros, all negative
			pre[j], pre[width+j], pre[2*width+j] = 0, negZero, -1-rng.Float32()
		}
		norms, fac := make([]float32, rows), make([]float32, rows)
		for i := range norms {
			norms[i], fac[i] = 4*rng.Float32(), 2*rng.Float32()
		}
		norms[nanID] = float32(math.NaN())
		ids := make([]int32, 64) // duplicates within groups, no NaN norm
		for i := range ids {
			ids[i] = int32(rng.Intn(rows - 1))
			if ids[i] >= nanID {
				ids[i]++
			}
		}
		zero, neg := make([]float32, width), make([]float32, width)
		for i := range neg {
			neg[i] = negZero
		}
		for qi, q := range [][]float32{randSlice(rng, width), zero, neg} {
			var vals []float32
			for id := int32(0); id < rows; id++ {
				if id != nanID {
					vals = append(vals, (norms[id]+1.5)-2*Dot(q, pre[int(id)*width:int(id+1)*width])-float32(0.25*fac[id]))
				}
			}
			slices.Sort(vals)
			taus := []float32{float32(math.Inf(-1)), float32(math.Inf(1)), vals[len(vals)/2], vals[len(vals)*15/100]}
			for _, fc := range [][]float32{nil, fac} {
				what := fmt.Sprintf("width %d query %d fac %t", width, qi, fc != nil)
				for _, tau := range taus {
					for n := 0; n <= len(ids); n++ {
						checkPruneRows(t, what, q, pre, ids[:n], norms, fc, 1.5, 0.25, tau, tab, stride)
					}
					for lane := 0; lane < 8; lane++ {
						blk := slices.Clone(ids[:19])
						blk[lane], blk[8+lane] = nanID, nanID
						if got, _ := checkPruneRows(t, what, q, pre, blk, norms, fc, 1.5, 0.25, tau, tab, stride); len(got) < 2 {
							t.Fatalf("%s τ %v: a NaN estimate in lane %d was pruned", what, tau, lane)
						}
					}
					for id := int32(0); id < 3; id++ {
						same := []int32{id, id, id, id, id, id, id, id, id}
						checkPruneRows(t, what, q, pre, same, norms, fc, 1.5, 0.25, tau, tab, stride)
					}
				}
				if got, _ := checkPruneRows(t, what, q, pre, ids, norms, fc, 1.5, 0.25, taus[0], tab, stride); len(got) != 0 {
					t.Fatalf("%s: τ = −Inf kept %v", what, got)
				}
				if got, _ := checkPruneRows(t, what, q, pre, ids, norms, fc, 1.5, 0.25, taus[1], tab, stride); len(got) != len(ids) {
					t.Fatalf("%s: τ = +Inf kept %d of %d ids", what, len(got), len(ids))
				}
			}
		}
	}
}

// BenchmarkPruneRows runs PruneRows over a 4 000-row prefix table in
// 64-id blocks, ids in table order, at prefix widths 32 and 64, with
// random factors (exact's shape): once with τ below every estimate, so
// every row is pruned, and once at the 15th percentile of the estimates.
// It reports ns/row.
func BenchmarkPruneRows(b *testing.B) {
	const rows, block = 4000, 64
	for _, width := range []int{32, 64} {
		rng := rand.New(rand.NewSource(int64(width)))
		q, pre := randSlice(rng, width), randSlice(rng, rows*width)
		norms, fac := make([]float32, rows), make([]float32, rows)
		ests := make([]float32, rows)
		for id := range norms {
			norms[id], fac[id] = 4*rng.Float32(), 2*rng.Float32()
			ests[id] = (norms[id] + 1.5) - 2*Dot(q, pre[id*width:(id+1)*width]) - float32(0.25*fac[id])
		}
		slices.Sort(ests)
		ids := make([]int32, rows)
		for i := range ids {
			ids[i] = int32(i)
		}
		keep, c2 := make([]int32, block), make([]float32, block)
		for _, c := range []struct {
			name string
			tau  float32
		}{{"pruned", float32(math.Inf(-1))}, {"kept15", ests[rows*15/100]}} {
			b.Run(fmt.Sprintf("w%d/%s", width, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < rows; lo += block {
						PruneRows(q, pre, ids[lo:min(lo+block, rows)], norms, fac, 1.5, 0.25, c.tau, pre, width, keep, c2)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}
