//go:build !amd64 || purego

package merkle

// useSHANI is false off amd64 and under -tags purego: sum takes the
// crypto/sha256 path.
var useSHANI = false

func blockSum(out *Hash, buf *[128]byte, n int) {
	panic("merkle: no SHA-256 kernel on this platform")
}
