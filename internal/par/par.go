// Package par splits an index range across goroutines: the one shape of
// parallelism the training-time row loops (rotating or encoding every row
// of a matrix) need.
package par

import (
	"runtime"
	"sync"
)

// Range calls fn(lo, hi) on disjoint chunks that together cover [0, n),
// from up to workers goroutines (GOMAXPROCS when workers <= 0), and
// returns once every call has. With a single chunk fn runs on the calling
// goroutine.
func Range(n, workers int, fn func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
