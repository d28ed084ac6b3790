// Package kmeans implements Lloyd's algorithm with k-means++ seeding and
// parallel assignment. It is the clustering substrate shared by the IVF
// coarse quantizer (§II-A of the paper) and the per-subspace codebook
// training of product quantization (§V-B). Points and centroids live in
// flat row-major matrices so the assignment step streams contiguously.
package kmeans

import (
	"errors"
	"math"
	"math/rand"

	"resinfer/internal/par"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// Config controls training.
type Config struct {
	K        int   // number of centroids (required, >= 1)
	MaxIters int   // Lloyd iterations; default 25
	Seed     int64 // RNG seed for k-means++ and empty-cluster repair
	// MinShift stops early when no centroid moved more than this squared
	// distance in an iteration; default 1e-6.
	MinShift float64
	// Workers bounds parallelism for the assignment step; default
	// runtime.GOMAXPROCS(0).
	Workers int
}

// Result holds a trained clustering.
type Result struct {
	Centroids  *store.Matrix // K rows of dimension D
	Assign     []int         // len(data); cluster index per point
	Sizes      []int         // points per cluster
	Iterations int           // Lloyd iterations actually run
	Inertia    float64       // final sum of squared distances to centroids
}

// Train clusters the rows of data into cfg.K clusters.
func Train(data *store.Matrix, cfg Config) (*Result, error) {
	if data == nil || data.Rows() == 0 {
		return nil, errors.New("kmeans: empty data")
	}
	n, d := data.Rows(), data.Dim()
	if cfg.K < 1 {
		return nil, errors.New("kmeans: K must be >= 1")
	}
	if cfg.K > n {
		return nil, errors.New("kmeans: K exceeds number of points")
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 25
	}
	if cfg.MinShift <= 0 {
		cfg.MinShift = 1e-6
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	centroids := seedPlusPlus(data, cfg.K, rng)
	assign := make([]int, n)
	res := &Result{Centroids: centroids, Assign: assign, Sizes: make([]int, cfg.K)}

	dists := make([]float32, n)
	for iter := 0; iter < cfg.MaxIters; iter++ {
		res.Iterations = iter + 1
		assignParallel(data, centroids, assign, dists, cfg.Workers)

		// Recompute centroids.
		sums := make([][]float64, cfg.K)
		for k := range sums {
			sums[k] = make([]float64, d)
		}
		counts := make([]int, cfg.K)
		for i := 0; i < n; i++ {
			k := assign[i]
			counts[k]++
			s := sums[k]
			for j, v := range data.Row(i) {
				s[j] += float64(v)
			}
		}
		maxShift := 0.0
		for k := 0; k < cfg.K; k++ {
			crow := centroids.Row(k)
			if counts[k] == 0 {
				// Empty cluster: reseed at the point currently farthest
				// from its centroid, the standard repair.
				far := farthestPoint(dists)
				copy(crow, data.Row(far))
				counts[k] = 1
				continue
			}
			inv := 1 / float64(counts[k])
			var shift float64
			for j := 0; j < d; j++ {
				nv := float32(sums[k][j] * inv)
				dv := float64(nv - crow[j])
				shift += dv * dv
				crow[j] = nv
			}
			if shift > maxShift {
				maxShift = shift
			}
		}
		copy(res.Sizes, counts)
		if maxShift < cfg.MinShift {
			break
		}
	}
	// Final assignment against the final centroids.
	assignParallel(data, centroids, assign, dists, cfg.Workers)
	for k := range res.Sizes {
		res.Sizes[k] = 0
	}
	var inertia float64
	for i := 0; i < n; i++ {
		res.Sizes[assign[i]]++
		inertia += float64(dists[i])
	}
	res.Inertia = inertia
	return res, nil
}

// NearestCentroid returns the index of the centroid closest to x and the
// squared distance to it.
func NearestCentroid(centroids *store.Matrix, x []float32) (int, float32) {
	best, bestD := 0, float32(math.Inf(1))
	flat := centroids.Flat()
	for k, off := 0, 0; k < centroids.Rows(); k, off = k+1, off+centroids.Dim() {
		d := vec.L2SqFlat(x, flat, off)
		if d < bestD {
			best, bestD = k, d
		}
	}
	return best, bestD
}

// NearestCentroidRows is NearestCentroid over row slices — used where
// centroids live in per-subspace codebooks rather than one matrix.
func NearestCentroidRows(centroids [][]float32, x []float32) (int, float32) {
	best, bestD := 0, float32(math.Inf(1))
	for k, c := range centroids {
		d := vec.L2Sq(x, c)
		if d < bestD {
			best, bestD = k, d
		}
	}
	return best, bestD
}

// NearestCentroidsInto returns the indices of the nprobe closest centroids
// to x, ordered by ascending distance — the IVF probe-selection step — using
// caller-provided scratch: out receives the probe order (appended to
// out[:0]), dists is a len-K distance scratch grown as needed. Both
// scratches are returned for reuse. Allocation-free once the scratches have
// reached capacity.
func NearestCentroidsInto(centroids *store.Matrix, x []float32, nprobe int, out []int, dists []float32) ([]int, []float32) {
	k := centroids.Rows()
	if nprobe > k {
		nprobe = k
	}
	if cap(dists) < k {
		dists = make([]float32, k)
	}
	dists = dists[:k]
	flat := centroids.Flat()
	for c, off := 0, 0; c < k; c, off = c+1, off+centroids.Dim() {
		dists[c] = vec.L2SqFlat(x, flat, off)
	}
	out = out[:0]
	// Partial selection over a scratch permutation is overkill: nprobe << K
	// in practice, so select the next-best centroid nprobe times, marking
	// consumed entries with +Inf.
	for i := 0; i < nprobe; i++ {
		best, bestD := -1, float32(math.Inf(1))
		for c, d := range dists {
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best < 0 {
			// Every remaining distance is +Inf or NaN (overflowed query or
			// consumed entry): fall back to the lowest centroid not yet
			// chosen so the probe list stays valid.
			for c := range dists {
				taken := false
				for _, o := range out {
					if o == c {
						taken = true
						break
					}
				}
				if !taken {
					best = c
					break
				}
			}
		}
		out = append(out, best)
		dists[best] = float32(math.Inf(1))
	}
	return out, dists
}

func seedPlusPlus(data *store.Matrix, k int, rng *rand.Rand) *store.Matrix {
	n := data.Rows()
	centroids, err := store.New(k, data.Dim())
	if err != nil {
		panic(err) // unreachable: shape validated by Train
	}
	first := rng.Intn(n)
	copy(centroids.Row(0), data.Row(first))

	// minDist[i] = squared distance from data[i] to nearest chosen centroid.
	minDist := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		minDist[i] = float64(vec.L2Sq(data.Row(i), centroids.Row(0)))
		total += minDist[i]
	}
	for c := 1; c < k; c++ {
		var chosen int
		if total <= 0 {
			chosen = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			chosen = n - 1
			for i, w := range minDist {
				acc += w
				if acc >= target {
					chosen = i
					break
				}
			}
		}
		copy(centroids.Row(c), data.Row(chosen))
		if c == k-1 {
			break
		}
		total = 0
		for i := 0; i < n; i++ {
			nd := float64(vec.L2Sq(data.Row(i), centroids.Row(c)))
			if nd < minDist[i] {
				minDist[i] = nd
			}
			total += minDist[i]
		}
	}
	return centroids
}

func assignParallel(data, centroids *store.Matrix, assign []int, dists []float32, workers int) {
	par.Range(data.Rows(), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			assign[i], dists[i] = NearestCentroid(centroids, data.Row(i))
		}
	})
}

func farthestPoint(dists []float32) int {
	best, bestD := 0, float32(-1)
	for i, d := range dists {
		if d > bestD {
			best, bestD = i, d
		}
	}
	return best
}
