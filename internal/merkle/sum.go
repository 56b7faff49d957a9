package merkle

import (
	"crypto/sha256"
	"encoding/binary"
)

// maxSumLen is the longest message sum hashes: 119 bytes, the 0x80 pad
// byte and the 8-byte bit length fill two 64-byte blocks.
const maxSumLen = 128 - 1 - 8

// sum stores the SHA-256 digest of buf[:n], n <= maxSumLen, in out. The
// caller passes buf with every byte from n on zero; sum writes the padding
// into it and compresses one block (n <= 55) or two in one kernel call.
// The digest goes out through a pointer so that HashInner and HashLeaf can
// hand their own result slot down to the kernel: returning a Hash by value
// costs a chain of 32-byte stack copies per call level, which shows on
// BenchmarkHashInner.
func sum(out *Hash, buf *[128]byte, n int) {
	if !useSHANI {
		*out = sha256.Sum256(buf[:n])
		return
	}
	buf[n] = 0x80
	if n < 64-8 {
		binary.BigEndian.PutUint64(buf[64-8:64], uint64(n)<<3)
		blockSum(out, buf, 64)
		return
	}
	binary.BigEndian.PutUint64(buf[128-8:], uint64(n)<<3)
	blockSum(out, buf, 128)
}

// Sum256 returns sha256.Sum256(data). Messages up to 119 bytes take the
// kernel; longer ones go to crypto/sha256.
func Sum256(data []byte) (h Hash) {
	if len(data) > maxSumLen {
		return sha256.Sum256(data)
	}
	var buf [128]byte
	copy(buf[:], data)
	sum(&h, &buf, len(data))
	return h
}
