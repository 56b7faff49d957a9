package ads

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"grub/internal/merkle"
	"grub/internal/sim"
	"grub/internal/wire"
)

// proofSet is a seeded set of about n records in both state groups, with
// keys past 127 bytes (a two-byte length), empty values and values too long
// for HashLeaf's stack buffer. Its keys are "key-" and six digits, with or
// without a long tail of 'k's.
func proofSet(seed uint64, n int) *Set {
	r := sim.NewRand(seed)
	s := NewSet()
	for i := 0; i < n; i++ {
		rec := Record{Key: fmt.Sprintf("key-%06d", r.Intn(4*n+1)), State: State(r.Intn(2)), Value: []byte(fmt.Sprintf("v%d", i))}
		if r.Intn(8) == 0 {
			rec.Key += strings.Repeat("k", 150)
		}
		switch r.Intn(6) {
		case 0:
			rec.Value = nil
		case 1:
			rec.Value = bytes.Repeat([]byte{byte(i)}, 300)
		}
		s.Put(rec)
	}
	return s
}

// proofProbes returns keys absent from proofSet(_, n) — below every key,
// above every key, and between keys — and windows over its key space: past
// both ends, below and above every key, inverted, single-key and empty.
func proofProbes(r *sim.Rand, n int) (absent []string, windows [][2]string) {
	key := func() string { return fmt.Sprintf("key-%06d", r.Intn(4*n+1)) }
	absent = []string{"", "a", "~"}
	windows = [][2]string{{"", "~"}, {"", "a"}, {"~", "~~"}, {"key-9", "key-"}}
	for i := 0; i < 12; i++ {
		absent = append(absent, key()+"x")
		lo, hi := key(), key()
		windows = append(windows, [2]string{lo, hi}, [2]string{lo, lo})
	}
	return absent, windows
}

// treeHash is the subtree hash the flat encoding commits.
func treeHash(t *testing.T, p *ProofTree) merkle.Hash {
	t.Helper()
	c := p.cursor()
	h, err := c.absent("", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustBinary(t *testing.T, a interface{ AppendBinary([]byte) ([]byte, error) }) []byte {
	t.Helper()
	b, err := a.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mutations returns copies of b with one bit flipped, at every byte of a
// short b and at a seeded sample of a long one, plus truncations.
func mutations(r *sim.Rand, b []byte) [][]byte {
	var out [][]byte
	step := max(1, len(b)/300)
	for i := r.Intn(step); i < len(b); i += step {
		m := bytes.Clone(b)
		m[i] ^= 1 << r.Intn(8)
		out = append(out, m)
	}
	for _, n := range []int{0, 1, len(b) / 2, len(b) - 1} {
		if n >= 0 && n < len(b) {
			out = append(out, bytes.Clone(b[:n]))
		}
	}
	return out
}

// TestDifferentialProofTrees pins the flat preorder proofs to the pointer
// trees they replaced (prooftree_oracle_test.go) on seeded sets: the same
// tree hash, Size, binary bytes, JSON bytes and range records, and the same
// accept or reject on every proof checked against other keys and windows and
// after every mutation of its binary form.
func TestDifferentialProofTrees(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		n    int
	}{{1, 0}, {2, 1}, {3, 2}, {4, 40}, {5, 300}, {6, 2000}} {
		t.Run(fmt.Sprintf("seed%d_n%d", c.seed, c.n), func(t *testing.T) {
			s := proofSet(c.seed, c.n)
			root, count := s.Root(), s.Len()
			r := sim.NewRand(c.seed)
			absent, windows := proofProbes(r, c.n)
			present := []string{}
			for i, rec := range s.Records() {
				if i%max(1, count/8) == 0 {
					present = append(present, rec.Key)
				}
			}

			for _, key := range absent {
				ap, err := s.ProveAbsent(key)
				if err != nil {
					t.Fatal(err)
				}
				oap := oracleProveAbsent(s, key)
				if ap.Paths != nil {
					want, err := oap.Paths.rootHash(0)
					if err != nil || treeHash(t, ap.Paths) != want {
						t.Fatalf("ProveAbsent(%q): tree hash differs from the oracle's (%v)", key, err)
					}
				} else if oap.Paths != nil {
					t.Fatalf("ProveAbsent(%q): empty tree, the oracle's is not", key)
				}
				if ap.Size() != oap.Size() {
					t.Fatalf("ProveAbsent(%q): Size %d, oracle %d", key, ap.Size(), oap.Size())
				}
				bin, obin := mustBinary(t, ap), mustBinary(t, oap)
				if !bytes.Equal(bin, obin) {
					t.Fatalf("ProveAbsent(%q): binary form differs from the oracle's", key)
				}
				js := mustJSON(t, ap)
				if ojs := mustJSON(t, oap); !bytes.Equal(js, ojs) {
					t.Fatalf("ProveAbsent(%q): JSON\n%s\noracle\n%s", key, js, ojs)
				}
				var back AbsenceProof
				if err := json.Unmarshal(js, &back); err != nil || !reflect.DeepEqual(&back, ap) {
					t.Fatalf("ProveAbsent(%q): JSON round trip: %v", key, err)
				}
				for _, k := range append(append([]string{}, absent...), present...) {
					got := VerifyAbsentAt(root, count, k, ap) == nil
					if want := oracleVerifyAbsentAt(root, count, k, oap) == nil; got != want {
						t.Fatalf("proof for %q checked for %q: accepted %v, oracle %v", key, k, got, want)
					}
				}
				for i, m := range mutations(r, bin) {
					rd, ord := wire.NewReader(m), wire.NewReader(m)
					dap, doap := DecodeAbsenceProof(rd), decodeOracleAbsence(ord)
					got := rd.Finish() == nil && VerifyAbsentAt(root, count, key, dap) == nil
					want := ord.Finish() == nil && oracleVerifyAbsentAt(root, count, key, doap) == nil
					if got != want {
						t.Fatalf("proof for %q, mutation %d: accepted %v, oracle %v", key, i, got, want)
					}
				}
			}

			for _, w := range windows {
				nr, err := s.ProveRangeNR(w[0], w[1])
				if err != nil {
					t.Fatal(err)
				}
				onr := oracleProveRangeNR(s, w[0], w[1])
				if !reflect.DeepEqual(nr.Records, onr.Records) {
					t.Fatalf("ProveRangeNR(%q, %q): records differ from the oracle's", w[0], w[1])
				}
				if nr.Proof != nil {
					want, err := onr.Proof.rootHash(0)
					if err != nil || treeHash(t, nr.Proof) != want {
						t.Fatalf("ProveRangeNR(%q, %q): tree hash differs from the oracle's (%v)", w[0], w[1], err)
					}
				}
				if nr.Size() != onr.Size() {
					t.Fatalf("ProveRangeNR(%q, %q): Size %d, oracle %d", w[0], w[1], nr.Size(), onr.Size())
				}
				bin := mustBinary(t, nr)
				if !bytes.Equal(bin, mustBinary(t, onr)) {
					t.Fatalf("ProveRangeNR(%q, %q): binary form differs from the oracle's", w[0], w[1])
				}
				js := mustJSON(t, nr)
				if ojs := mustJSON(t, onr); !bytes.Equal(js, ojs) {
					t.Fatalf("ProveRangeNR(%q, %q): JSON\n%s\noracle\n%s", w[0], w[1], js, ojs)
				}
				var back NRRange
				if err := json.Unmarshal(js, &back); err != nil || !reflect.DeepEqual(&back, nr) {
					t.Fatalf("ProveRangeNR(%q, %q): JSON round trip: %v", w[0], w[1], err)
				}
				for _, w2 := range windows {
					got := VerifyRangeNRAt(root, count, w2[0], w2[1], nr) == nil
					if want := oracleVerifyRangeNRAt(root, count, w2[0], w2[1], onr) == nil; got != want {
						t.Fatalf("range %v checked for %v: accepted %v, oracle %v", w, w2, got, want)
					}
				}
				for i, m := range mutations(r, bin) {
					rd, ord := wire.NewReader(m), wire.NewReader(m)
					dnr, donr := DecodeNRRange(rd), decodeOracleRange(ord)
					got := rd.Finish() == nil && VerifyRangeNRAt(root, count, w[0], w[1], dnr) == nil
					want := ord.Finish() == nil && oracleVerifyRangeNRAt(root, count, w[0], w[1], donr) == nil
					if got != want {
						t.Fatalf("range %v, mutation %d: accepted %v, oracle %v", w, i, got, want)
					}
				}
			}
		})
	}
}

// TestDifferentialVerifyHostileTrees runs both verifiers over trees no
// honest prover builds — a stub or a wrong record on the search path, a
// record out of search order, trailing bytes — and requires the same
// verdict.
func TestDifferentialVerifyHostileTrees(t *testing.T) {
	s := proofSet(9, 60)
	root, count := s.Root(), s.Len()
	ap, err := s.ProveAbsent("key-000100x")
	if err != nil {
		t.Fatal(err)
	}
	h := merkle.HashLeaf([]byte("elsewhere"))
	node := func(k string, st State, children ...byte) []byte {
		return append(Record{Key: k, State: st}.appendWire([]byte{tagNode}), children...)
	}
	for name, enc := range map[string][]byte{
		"honest":          ap.Paths.enc,
		"trailing byte":   append(bytes.Clone(ap.Paths.enc), tagNil),
		"stub on path":    append([]byte{tagStub}, h[:]...),
		"empty":           nil,
		"lone record":     node("key-000100x", NR, tagNil, tagNil),
		"out of order":    append(node("b", NR), node("c", NR, tagNil, tagNil, tagNil)...),
		"deep nil chain":  append(bytes.Repeat(node("k", NR), maxProofDepth+1), bytes.Repeat([]byte{tagNil}, maxProofDepth+2)...),
		"past depth cap":  append(bytes.Repeat(node("k", NR), maxProofDepth+2), bytes.Repeat([]byte{tagNil}, maxProofDepth+3)...),
		"state byte 2":    node("k", 2, tagNil, tagNil),
		"unknown tag":     {7},
		"truncated stub":  append([]byte{tagStub}, h[:31]...),
		"record overruns": {tagNode, 9, 0, 1, 'k'},
	} {
		flat := &AbsenceProof{Count: count, Paths: &ProofTree{enc: enc}}
		rd := wire.NewReader(enc)
		ot := decodeOracleTree(rd, 0)
		for _, key := range []string{"key-000100x", "b", "k"} {
			got := VerifyAbsentAt(root, count, key, flat) == nil
			want := rd.Finish() == nil && oracleVerifyAbsentAt(root, count, key, &oracleAbsence{count, ot}) == nil
			if got != want {
				t.Errorf("%s, key %q: accepted %v, oracle %v", name, key, got, want)
			}
		}
		for _, w := range [][2]string{{"a", "z"}, {"key-0001", "key-0002"}} {
			got := VerifyRangeNRAt(root, count, w[0], w[1], &NRRange{Count: count, Proof: &ProofTree{enc: enc}}) == nil
			want := rd.Finish() == nil && oracleVerifyRangeNRAt(root, count, w[0], w[1], &oracleRange{Count: count, Proof: ot}) == nil
			if got != want {
				t.Errorf("%s, window %v: accepted %v, oracle %v", name, w, got, want)
			}
		}
	}
}

// proofBench is a 50k-record set and the inputs of the proof benchmarks:
// absent keys, 8-key windows, and the proofs they yield.
type proofBench struct {
	set     *Set
	root    merkle.Hash
	count   int
	absent  []string
	windows [][2]string
	aps     []*AbsenceProof
	nrs     []*NRRange
}

var (
	benchOnce sync.Once
	benchData proofBench
)

func proofBenchData(tb testing.TB) *proofBench {
	benchOnce.Do(func() {
		const n = 50_000
		d := &benchData
		d.set = NewSet()
		for i := 0; i < n; i++ {
			d.set.Put(Record{Key: fmt.Sprintf("user%07d", i), State: State(i % 4 / 3), Value: bytes.Repeat([]byte{byte(i)}, 32)})
		}
		d.root, d.count = d.set.Root(), d.set.Len()
		r := sim.NewRand(1)
		for i := 0; i < 256; i++ {
			k := r.Intn(n - 8)
			d.absent = append(d.absent, fmt.Sprintf("user%07dx", k))
			d.windows = append(d.windows, [2]string{fmt.Sprintf("user%07d", k), fmt.Sprintf("user%07d", k+7)})
		}
		for i := range d.absent {
			ap, err := d.set.ProveAbsent(d.absent[i])
			if err != nil {
				panic(err)
			}
			nr, err := d.set.ProveRangeNR(d.windows[i][0], d.windows[i][1])
			if err != nil {
				panic(err)
			}
			d.aps, d.nrs = append(d.aps, ap), append(d.nrs, nr)
		}
	})
	return &benchData
}

// TestProofAllocations bounds the allocations of the pruned-tree proofs on
// a 50k-record set: ProveAbsent is the proof, its tree and one copy of the
// encoding (a fresh scratch buffer when the pool was emptied adds a few);
// verification allocates nothing but, for a long record, HashLeaf's
// preimage.
func TestProofAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	d := proofBenchData(t)
	i := 0
	prove := testing.AllocsPerRun(200, func() {
		if _, err := d.set.ProveAbsent(d.absent[i%len(d.absent)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	verify := testing.AllocsPerRun(200, func() {
		if err := VerifyAbsentAt(d.root, d.count, d.absent[i%len(d.absent)], d.aps[i%len(d.aps)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("ProveAbsent %.2f, VerifyAbsentAt %.2f allocations", prove, verify)
	if prove > 4 {
		t.Errorf("ProveAbsent: %.2f allocations, want at most 4", prove)
	}
	if verify > 1 {
		t.Errorf("VerifyAbsentAt: %.2f allocations, want at most 1", verify)
	}
}

func BenchmarkProveAbsent(b *testing.B) {
	d := proofBenchData(b)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := d.set.ProveAbsent(d.absent[i%len(d.absent)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProveRangeNR(b *testing.B) {
	d := proofBenchData(b)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		w := d.windows[i%len(d.windows)]
		if _, err := d.set.ProveRangeNR(w[0], w[1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyAbsent(b *testing.B) {
	d := proofBenchData(b)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		j := i % len(d.aps)
		if err := VerifyAbsentAt(d.root, d.count, d.absent[j], d.aps[j]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyRangeNR(b *testing.B) {
	d := proofBenchData(b)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		j := i % len(d.nrs)
		if err := VerifyRangeNRAt(d.root, d.count, d.windows[j][0], d.windows[j][1], d.nrs[j]); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzProofTreeVerify hands arbitrary bytes, as the tree of an absence proof
// and of a range answer, straight to the in-place verifiers — no decoder
// checks them first. The verifiers must never panic or recurse past
// maxProofDepth (a stack overflow is a crash the fuzzer reports), must
// accept nothing against a root the bytes do not hash to, and must accept
// only what the pointer-tree oracle accepts from the same bytes.
//
// Wired into `make fuzz-smoke`.
func FuzzProofTreeVerify(f *testing.F) {
	s := proofSet(11, 40)
	root, count := s.Root(), s.Len()
	wrong := root
	wrong[0] ^= 1
	absent, windows := proofProbes(sim.NewRand(11), 40)
	honest := make([][]Record, len(windows))
	for i, w := range windows {
		nr, err := s.ProveRangeNR(w[0], w[1])
		if err != nil {
			f.Fatal(err)
		}
		honest[i] = nr.Records
		if nr.Proof != nil {
			f.Add(byte(i), nr.Proof.enc)
		}
	}
	for i, k := range absent {
		ap, err := s.ProveAbsent(k)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(byte(i), ap.Paths.enc)
	}
	f.Add(byte(0), bytes.Repeat([]byte{tagNode, 3, 0, 1, 'k'}, 700))
	f.Fuzz(func(t *testing.T, sel byte, enc []byte) {
		rd := wire.NewReader(enc)
		ot := decodeOracleTree(rd, 0)
		oracleOK := rd.Finish() == nil

		key := absent[int(sel)%len(absent)]
		ap := &AbsenceProof{Count: count, Paths: &ProofTree{enc: enc}}
		if VerifyAbsentAt(wrong, count, key, ap) == nil {
			t.Fatalf("absence of %q accepted against a root the tree does not hash to", key)
		}
		if VerifyAbsentAt(root, count, key, ap) == nil && (!oracleOK || oracleVerifyAbsentAt(root, count, key, &oracleAbsence{count, ot}) != nil) {
			t.Fatalf("absence of %q accepted, the oracle refuses it", key)
		}

		i := int(sel) % len(windows)
		w := windows[i]
		nr := &NRRange{Count: count, Records: honest[i], Proof: &ProofTree{enc: enc}}
		if VerifyRangeNRAt(wrong, count, w[0], w[1], nr) == nil {
			t.Fatalf("range %v accepted against a root the tree does not hash to", w)
		}
		if VerifyRangeNRAt(root, count, w[0], w[1], nr) == nil && (!oracleOK || oracleVerifyRangeNRAt(root, count, w[0], w[1], &oracleRange{Count: count, Records: honest[i], Proof: ot}) != nil) {
			t.Fatalf("range %v accepted, the oracle refuses it", w)
		}
	})
}
