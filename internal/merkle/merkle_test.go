package merkle

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"grub/internal/sim"
)

func leafData(i int) []byte { return []byte(fmt.Sprintf("leaf-%06d", i)) }

func buildTree(n int) *Tree {
	leaves := make([]Hash, n)
	for i := range leaves {
		leaves[i] = HashLeaf(leafData(i))
	}
	return New(leaves)
}

func TestEmptyRootStable(t *testing.T) {
	if EmptyRoot() != EmptyRoot() {
		t.Fatal("EmptyRoot not deterministic")
	}
	if New(nil).Root() != EmptyRoot() {
		t.Fatal("empty tree root != EmptyRoot()")
	}
}

func TestSingleLeafRoot(t *testing.T) {
	h := HashLeaf([]byte("x"))
	if got := New([]Hash{h}).Root(); got != h {
		t.Fatalf("single-leaf root = %v, want leaf hash %v", got, h)
	}
}

func TestDomainSeparation(t *testing.T) {
	// A leaf containing what looks like two concatenated hashes must not
	// collide with the interior hash of those hashes.
	a, b := HashLeaf([]byte("a")), HashLeaf([]byte("b"))
	payload := append(append([]byte{}, a[:]...), b[:]...)
	if HashLeaf(payload) == HashInner(a, b) {
		t.Fatal("leaf and inner hashing share a domain")
	}
}

func TestRootChangesWithAnyLeaf(t *testing.T) {
	tr := buildTree(10)
	orig := tr.Root()
	for i := 0; i < 10; i++ {
		leaves := make([]Hash, 10)
		for j := range leaves {
			leaves[j] = HashLeaf(leafData(j))
		}
		leaves[i] = HashLeaf([]byte("tampered"))
		if New(leaves).Root() == orig {
			t.Errorf("tampering leaf %d did not change the root", i)
		}
	}
}

func TestProveVerifyAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64, 100} {
		tr := buildTree(n)
		root := tr.Root()
		for i := 0; i < n; i++ {
			p, err := tr.Prove(i)
			if err != nil {
				t.Fatalf("n=%d Prove(%d): %v", n, i, err)
			}
			if err := Verify(root, HashLeaf(leafData(i)), p); err != nil {
				t.Fatalf("n=%d Verify(%d): %v", n, i, err)
			}
		}
	}
}

func TestVerifyRejectsWrongLeaf(t *testing.T) {
	tr := buildTree(16)
	root := tr.Root()
	p, _ := tr.Prove(5)
	err := Verify(root, HashLeaf([]byte("forged")), p)
	if !errors.Is(err, ErrInvalidProof) {
		t.Fatalf("Verify with forged leaf: err = %v, want ErrInvalidProof", err)
	}
}

func TestVerifyRejectsWrongRoot(t *testing.T) {
	tr := buildTree(16)
	p, _ := tr.Prove(5)
	err := Verify(HashLeaf([]byte("other root")), HashLeaf(leafData(5)), p)
	if !errors.Is(err, ErrInvalidProof) {
		t.Fatalf("Verify with wrong root: err = %v, want ErrInvalidProof", err)
	}
}

func TestVerifyRejectsTamperedPath(t *testing.T) {
	tr := buildTree(16)
	root := tr.Root()
	p, _ := tr.Prove(3)
	p.Path[1].Hash = HashLeaf([]byte("evil"))
	if err := Verify(root, HashLeaf(leafData(3)), p); !errors.Is(err, ErrInvalidProof) {
		t.Fatalf("tampered path accepted: %v", err)
	}
}

func TestVerifyNilProof(t *testing.T) {
	if err := Verify(EmptyRoot(), Hash{}, nil); !errors.Is(err, ErrInvalidProof) {
		t.Fatalf("nil proof: err = %v", err)
	}
}

func TestProveOutOfRange(t *testing.T) {
	tr := buildTree(4)
	if _, err := tr.Prove(4); err == nil {
		t.Fatal("Prove(4) on 4-leaf tree succeeded")
	}
	if _, err := tr.Prove(-1); err == nil {
		t.Fatal("Prove(-1) succeeded")
	}
}

func TestProofSizeLogarithmic(t *testing.T) {
	tr := buildTree(1024)
	p, _ := tr.Prove(512)
	if len(p.Path) != 10 {
		t.Fatalf("1024-leaf proof path length = %d, want 10", len(p.Path))
	}
	if p.Size() <= 0 {
		t.Fatalf("Size() = %d", p.Size())
	}
}

func TestProveVerifyProperty(t *testing.T) {
	f := func(seed uint64, nRaw, iRaw uint16) bool {
		n := int(nRaw%200) + 1
		i := int(iRaw) % n
		r := sim.NewRand(seed)
		leaves := make([]Hash, n)
		for j := range leaves {
			leaves[j] = HashLeaf([]byte(fmt.Sprintf("%d-%d", r.Uint64(), j)))
		}
		tr := New(leaves)
		root := tr.Root()
		p, err := tr.Prove(i)
		if err != nil {
			return false
		}
		if Verify(root, leaves[i], p) != nil {
			return false
		}
		bad := leaves[i]
		bad[0] ^= 1
		return Verify(root, bad, p) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRoot1024(b *testing.B) {
	tr := buildTree(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tr.Root()
	}
}

func BenchmarkProve1024(b *testing.B) {
	tr := buildTree(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = tr.Prove(i % 1024)
	}
}

// BenchmarkHashInner is the record set's unit of hashing: a sealed node
// costs one where only its right subtree changed and two otherwise.
func BenchmarkHashInner(b *testing.B) {
	l, r := HashLeaf([]byte("l")), HashLeaf([]byte("r"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l = HashInner(l, r)
	}
	benchSink = l
}

var benchSink Hash

// TestHashJSONRoundTrip pins the hex wire representation of hashes: a quoted
// 64-character lowercase hex string, the bytes json.Marshal(h.Hex()) gives.
func TestHashJSONRoundTrip(t *testing.T) {
	var fixed Hash
	for i := range fixed {
		fixed[i] = byte(i * 9)
	}
	const fixedWire = `"0009121b242d363f48515a636c757e879099a2abb4bdc6cfd8e1eaf3fc050e17"`
	for _, h := range []Hash{fixed, HashLeaf([]byte("payload")), {}} {
		data, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(h.Hex()); string(data) != string(want) {
			t.Errorf("marshaled %s, want %s", data, want)
		}
		if h == fixed && string(data) != fixedWire {
			t.Errorf("fixed hash marshaled %s, want %s", data, fixedWire)
		}
		back := HashLeaf([]byte("overwritten"))
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != h {
			t.Errorf("round trip changed hash: %v != %v", back, h)
		}
	}
	// A proof's hashes sit in struct fields and behind pointers.
	type wire struct {
		Node ProofNode `json:"node"`
		Stub *Hash     `json:"stub,omitempty"`
	}
	in := wire{Node: ProofNode{Left: true, Hash: fixed}, Stub: &fixed}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"node":{"left":true,"hash":` + fixedWire + `},"stub":` + fixedWire + `}`; string(data) != want {
		t.Errorf("marshaled %s, want %s", data, want)
	}
	var out wire
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Node != in.Node || out.Stub == nil || *out.Stub != fixed {
		t.Errorf("struct round trip: got %+v", out)
	}

	// encoding/json never hands null to a TextUnmarshaler: like an absent
	// field it leaves the hash as it was (zero in a fresh struct, which no
	// root matches).
	back := fixed
	if err := json.Unmarshal([]byte(`null`), &back); err != nil || back != fixed {
		t.Errorf("null: hash %v, err %v", back, err)
	}
	long := fixedWire[:65] + `00"`
	nonHex := `"g` + fixedWire[2:]
	upper := strings.ToUpper(fixedWire)
	if err := json.Unmarshal([]byte(upper), &back); err != nil || back != fixed {
		t.Errorf("uppercase hex: hash %v, err %v (the old decoder accepted it)", back, err)
	}
	for _, bad := range []string{`"zz"`, `"abcd"`, `""`, fixedWire[:63] + `"`, long, nonHex, `123`, `true`, `[0]`, `{}`} {
		back = fixed
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Errorf("bad hash JSON %s accepted", bad)
		}
		if back != fixed {
			t.Errorf("bad hash JSON %s changed the target to %v", bad, back)
		}
	}
}

// TestHashKernelsDoNotAllocate pins the stack-buffer kernels: the record
// set calls them once per node per epoch, so an allocation here is one per
// node.
func TestHashKernelsDoNotAllocate(t *testing.T) {
	a, b := HashLeaf([]byte("a")), HashLeaf([]byte("b"))
	payload := make([]byte, leafBufSize-1)
	twoBlocks := make([]byte, maxSumLen-1)
	var sink Hash
	for name, f := range map[string]func(){
		"HashInner":           func() { sink = HashInner(a, b) },
		"HashLeaf":            func() { sink = HashLeaf(payload) },
		"HashLeaf/two-blocks": func() { sink = HashLeaf(twoBlocks) },
		"Sum256":              func() { sink = Sum256(twoBlocks) },
		"EmptyRoot":           func() { sink = EmptyRoot() },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
	_ = sink
}

// TestHashLeafPreimage pins HashLeaf's output to the 0x00-prefixed SHA-256
// on both sides of the one-block (55-byte preimage) and two-block (119-byte)
// padding limits and of the stack-buffer limit.
func TestHashLeafPreimage(t *testing.T) {
	for _, n := range []int{0, 1, 54, 55, 118, 119, leafBufSize - 2, leafBufSize - 1, leafBufSize, leafBufSize + 1, 4096} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i)
		}
		want := Hash(sha256.Sum256(append([]byte{leafPrefix}, data...)))
		if got := HashLeaf(data); got != want {
			t.Errorf("HashLeaf(%d bytes) = %v, want %v", n, got, want)
		}
	}
}
