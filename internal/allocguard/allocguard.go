// Package allocguard is the one way the 0-allocs/op guard tests measure.
// testing.AllocsPerRun counts every allocation in the process while it
// runs the function on a single P, so a guard that passes every time in
// isolation reads phantom allocations when `go test ./...` runs packages
// side by side on a small machine: a garbage collection mid-measurement
// empties the sync.Pools the search path draws from, and background
// goroutines the single P starves (the shadow sampler's worker) leave more
// pooled objects in flight than a warm-up on every P ever created.
package allocguard

import (
	"runtime"
	"runtime/debug"
	"testing"

	"resinfer/internal/raceguard"
)

// SkipIfInstrumented skips the test when the binary carries
// instrumentation that allocates on its own (the race detector, coverage).
// Guards call it before their set-up, which is the expensive part.
func SkipIfInstrumented(t testing.TB) {
	t.Helper()
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if raceguard.Enabled {
		t.Skip("race-detector instrumentation allocates")
	}
}

// PerRun switches the collector off and narrows the scheduler to the one P
// AllocsPerRun measures on, runs warm — so every pool on f's path is
// filled under the conditions f will meet — returns
// testing.AllocsPerRun(runs, f), and restores both settings.
func PerRun(runs int, warm, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	warm()
	return testing.AllocsPerRun(runs, f)
}
