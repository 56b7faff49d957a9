//go:build !purego

package merkle

// useSHANI reports whether blockSum may run: the CPU has SHA-NI and the SSE
// extensions the kernel's shuffles use (SSSE3 PSHUFB/PALIGNR, SSE4.1
// PBLENDW). It is decided once, here; tests flip it to time and check the
// fallback in the same binary.
var useSHANI = detectSHANI()

func detectSHANI() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		ssse3  = 1 << 9  // CPUID.1:ECX
		sse41  = 1 << 19 // CPUID.1:ECX
		shaExt = 1 << 29 // CPUID.(7,0):EBX
	)
	return ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&shaExt != 0
}

// blockSum compresses the n bytes (64 or 128) of an already padded message
// from the SHA-256 IV and stores the big-endian digest in out.
//
//go:noescape
func blockSum(out *Hash, buf *[128]byte, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
