package merkle

import (
	"crypto/sha256"
	"testing"

	"grub/internal/sim"
)

// withKernel runs f once on the crypto/sha256 path and, where the CPU has
// the kernel, once on it, restoring the init-time dispatch afterwards.
func withKernel(t testing.TB, f func(t testing.TB, path string)) {
	saved := useSHANI
	defer func() { useSHANI = saved }()
	useSHANI = false
	f(t, "crypto/sha256")
	if saved {
		useSHANI = true
		f(t, "SHA-NI")
	}
}

// TestSum256MatchesStdlib pins the kernel and the fallback to crypto/sha256
// for every length either side of the one- and two-block padding limits and
// past the 119-byte cut-over to the stdlib.
func TestSum256MatchesStdlib(t *testing.T) {
	if !useSHANI {
		t.Log("no SHA-NI on this CPU or build: checking the fallback only")
	}
	r := sim.NewRand(1)
	withKernel(t, func(t testing.TB, path string) {
		for n := 0; n <= 256; n++ {
			data := make([]byte, n)
			for fill := 0; fill < 4; fill++ {
				for i := range data {
					switch fill {
					case 0: // all zero
					case 1:
						data[i] = 0xff
					default:
						data[i] = byte(r.Uint64())
					}
				}
				if got, want := Sum256(data), Hash(sha256.Sum256(data)); got != want {
					t.Fatalf("%s: Sum256(%d bytes, fill %d) = %v, want %v", path, n, fill, got, want)
				}
				if n < leafBufSize {
					if got, want := HashLeaf(data), Hash(sha256.Sum256(append([]byte{leafPrefix}, data...))); got != want {
						t.Fatalf("%s: HashLeaf(%d bytes, fill %d) = %v, want %v", path, n, fill, got, want)
					}
				}
			}
		}
		var a, b Hash
		for i := range a {
			a[i], b[i] = byte(r.Uint64()), byte(r.Uint64())
		}
		want := Hash(sha256.Sum256(append(append([]byte{innerPrefix}, a[:]...), b[:]...)))
		if got := HashInner(a, b); got != want {
			t.Fatalf("%s: HashInner = %v, want %v", path, got, want)
		}
	})
}

// FuzzSum256 checks Sum256 against crypto/sha256 on arbitrary messages,
// on both paths. Wired into `make fuzz-smoke`.
func FuzzSum256(f *testing.F) {
	for _, n := range []int{0, 1, 55, 56, 63, 64, 119, 120, 128} {
		f.Add(make([]byte, n))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		withKernel(t, func(t testing.TB, path string) {
			if got, want := Sum256(data), Hash(sha256.Sum256(data)); got != want {
				t.Fatalf("%s: Sum256(%x) = %v, want %v", path, data, got, want)
			}
		})
	})
}

// ycsbLeaf is a YCSB record's encoding as the record set hashes it (state
// byte, key length, "user0000000001", a 32-byte value): a one-block leaf.
// btcLeaf is a BtcRelay record ("btc-block-00000001", an 80-byte header):
// a two-block leaf.
var (
	ycsbLeaf = append([]byte{0, 14}, append([]byte("user0000000001"), make([]byte, 32)...)...)
	btcLeaf  = append([]byte{0, 18}, append([]byte("btc-block-00000001"), make([]byte, 80)...)...)
)

func BenchmarkHashLeaf(b *testing.B) {
	for _, bc := range []struct {
		name string
		data []byte
	}{{"ycsb", ycsbLeaf}, {"btcrelay", btcLeaf}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = HashLeaf(bc.data)
			}
		})
	}
}

// BenchmarkSum256Stdlib is the in-tree reference for BenchmarkHashInner:
// crypto/sha256 over the same 65-byte interior-node preimage.
func BenchmarkSum256Stdlib(b *testing.B) {
	var buf [1 + 2*HashSize]byte
	buf[0] = innerPrefix
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := sha256.Sum256(buf[:])
		copy(buf[1:], h[:])
	}
	benchSink = Hash(buf[1 : 1+HashSize])
}
