package resinfer

// Concurrency-safety pin-down: an Index (and a ShardedIndex layered over
// it) is read-safe once Enable returns — any number of goroutines may run
// Search / SearchInto / SearchBatch against it concurrently. Run
// under `go test -race` (CI does) to catch data races in the search path,
// the per-query evaluators, and the sharded fan-out/merge.

import (
	"sync"
	"testing"
)

func TestConcurrentSearchBatchRace(t *testing.T) {
	ds, _ := apiFixtures(t)
	ix, err := New(ds.Data, HNSW, &Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}

	const goroutines = 12
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mode := Exact
			if g%2 == 0 {
				mode = DDCRes
			}
			// Mix single searches and batches from the same goroutine.
			for rep := 0; rep < 3; rep++ {
				q := ds.Queries[(g+rep)%len(ds.Queries)]
				if _, _, err := ix.SearchInto(nil, q, 10, mode, 60); err != nil {
					errCh <- err
					return
				}
				res, err := ix.SearchBatch(ds.Queries[:8], 10, mode, 60, 4)
				if err != nil {
					errCh <- err
					return
				}
				for _, r := range res {
					if r.Err != nil {
						errCh <- r.Err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestConcurrentShardedSearchRace(t *testing.T) {
	ds, _ := apiFixtures(t)
	sx, err := NewSharded(ds.Data, HNSW, 3, &ShardOptions{Index: &Options{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}

	const goroutines = 12
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mode := DDCRes
			if g%3 == 0 {
				mode = Exact
			}
			for rep := 0; rep < 3; rep++ {
				q := ds.Queries[(g+rep)%len(ds.Queries)]
				if _, err := sx.Search(q, 10, mode, 60); err != nil {
					errCh <- err
					return
				}
			}
			if g%2 == 0 {
				res, err := sx.SearchBatch(ds.Queries[:6], 10, mode, 60, 3)
				if err != nil {
					errCh <- err
					return
				}
				for _, r := range res {
					if r.Err != nil {
						errCh <- r.Err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestBatchValidation(t *testing.T) {
	ds, _ := apiFixtures(t)
	ix, err := New(ds.Data[:100], Flat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.SearchBatch(nil, 10, Exact, 0, 0); err == nil {
		t.Fatal("expected empty-batch error")
	}
	if _, err := ix.SearchBatch(ds.Queries, 0, Exact, 0, 0); err == nil {
		t.Fatal("expected bad-k error")
	}
	if _, err := ix.SearchBatch(ds.Queries, -3, Exact, 0, 0); err == nil {
		t.Fatal("expected negative-k error")
	}
	if _, err := ix.SearchBatch(ds.Queries, 10, Exact, -1, 0); err == nil {
		t.Fatal("expected bad-budget error")
	}
	mixed := [][]float32{ds.Queries[0], {1, 2, 3}}
	if _, err := ix.SearchBatch(mixed, 10, Exact, 0, 0); err == nil {
		t.Fatal("expected dim-mismatch error")
	}
	// A valid batch still succeeds after the validation path.
	res, err := ix.SearchBatch(ds.Queries[:4], 10, Exact, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d results", len(res))
	}
}
