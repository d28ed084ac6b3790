//go:build amd64 && !noasm

package vec

// Runtime CPU-feature detection for the AVX2+FMA kernels, hand-rolled so
// the module keeps zero dependencies. AVX2 and FMA are separate CPUID
// feature bits, and using YMM registers also requires the OS to have
// enabled extended state saving (OSXSAVE + XCR0 bits 1-2), so all four
// conditions are checked — the same ladder golang.org/x/sys/cpu walks.

// cpuid executes the CPUID instruction with the given leaf/subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (requires OSXSAVE).
func xgetbv() (eax, edx uint32)

//go:noescape
func dotAVX2(a, b []float32) float32

//go:noescape
func l2sqAVX2(a, b []float32) float32

//go:noescape
func pruneRowsAVX2(q, pre []float32, ids []int32, norms, fac []float32, qNorm, bound, tau float32, next []float32, stride int, keep []int32, c2 []float32) int

//go:noescape
func axpyRows64AVX2(y, a []float64, x [][]float64)

//go:noescape
func rot64AVX2(x, y []float64, c, s float64)

func hasAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		cpuidFMA     = 1 << 12 // leaf 1 ECX
		cpuidOSXSAVE = 1 << 27 // leaf 1 ECX
		cpuidAVX     = 1 << 28 // leaf 1 ECX
		cpuidAVX2    = 1 << 5  // leaf 7 EBX
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(cpuidFMA|cpuidOSXSAVE|cpuidAVX) != cpuidFMA|cpuidOSXSAVE|cpuidAVX {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0x6 != 0x6 { // XMM and YMM state OS-enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&cpuidAVX2 != 0
}

// pruneCompact[m] lists the lanes set in the 8-bit mask m, lowest first,
// then 0s: the VPERMD / VPERMPS index with which pruneRowsAVX2 packs a
// group's kept ids and their c to the front of an 8-wide store.
var pruneCompact [256][8]int32

func init() {
	for m := range pruneCompact {
		n := 0
		for i := range 8 {
			if m>>i&1 != 0 {
				pruneCompact[m][n] = int32(i)
				n++
			}
		}
	}
	if !hasAVX2FMA() {
		return
	}
	dotImpl, l2sqImpl, pruneRowsImpl = dotAVX2, l2sqAVX2, pruneRowsSplit
	axpyRows64Impl, rot64Impl = axpyRows64AVX2, rot64AVX2
	level = "avx2+fma"
}

// pruneRowsSplit is PruneRows on amd64: at len(q) 32 or 64 the whole
// 8-id groups go to pruneRowsAVX2, and every other id to pruneRowsLoop,
// whose c comes from dotAVX2 and whose test rounds as the kernel's does.
func pruneRowsSplit(q, pre []float32, ids []int32, norms, fac []float32, qNorm, bound, tau float32, next []float32, stride int, keep []int32, c2 []float32) int {
	n := 0
	if g := len(ids) &^ 7; g > 0 && (len(q) == 32 || len(q) == 64) {
		n = pruneRowsAVX2(q, pre, ids[:g], norms, fac, qNorm, bound, tau, next, stride, keep, c2)
		if ids = ids[g:]; len(ids) == 0 {
			return n
		}
	}
	return n + pruneRowsLoop(q, pre, ids, norms, fac, qNorm, bound, tau, next, stride, keep[n:], c2[n:])
}
