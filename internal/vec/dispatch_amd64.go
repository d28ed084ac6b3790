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

func init() {
	if noSIMDEnv() || !hasAVX2FMA() {
		return
	}
	dotImpl, l2sqImpl = dotAVX2, l2sqAVX2
	axpyRows64Impl, rot64Impl = axpyRows64AVX2, rot64AVX2
	level = "avx2+fma"
}
