package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRatioTraceShape(t *testing.T) {
	trace := Ratio("k", 1, 4, 10, 32, 1)
	st := Describe(trace)
	if st.Writes != 10 || st.Reads != 40 {
		t.Fatalf("Ratio(1,4,10): writes=%d reads=%d", st.Writes, st.Reads)
	}
	if st.Keys != 1 {
		t.Fatalf("Keys = %d, want 1", st.Keys)
	}
	// Structure: W RRRR W RRRR ...
	if !trace[0].Write || trace[1].Write {
		t.Fatal("trace does not start with W R...")
	}
	if len(trace[0].Value) != 32 {
		t.Fatalf("value size = %d", len(trace[0].Value))
	}
}

func TestRatioFraction(t *testing.T) {
	tests := []struct {
		ratio float64
		want  float64 // expected reads/writes
	}{
		{0, 0},
		{0.125, 0.125},
		{0.5, 0.5},
		{1, 1},
		{4, 4},
		{256, 256},
	}
	for _, tt := range tests {
		trace := RatioFraction("k", tt.ratio, 4000, 32, 7)
		st := Describe(trace)
		if st.Writes == 0 {
			t.Fatalf("ratio %v: no writes", tt.ratio)
		}
		got := float64(st.Reads) / float64(st.Writes)
		if math.Abs(got-tt.want) > tt.want*0.15+0.05 {
			t.Errorf("ratio %v: got reads/writes %.3f, want ~%.3f", tt.ratio, got, tt.want)
		}
	}
}

func TestEthPriceDistributionSumsToOne(t *testing.T) {
	sum := 0.0
	for _, f := range EthPriceDistribution {
		sum += f
	}
	if math.Abs(sum-1) > 0.005 {
		t.Fatalf("Table 1 distribution sums to %.4f", sum)
	}
}

func TestEthPriceOracleMatchesTable1(t *testing.T) {
	trace := EthPriceOracle("eth", EthPriceWrites, 32, 42)
	st := Describe(trace)
	if st.Writes != EthPriceWrites {
		t.Fatalf("writes = %d, want %d", st.Writes, EthPriceWrites)
	}
	hist := BurstHistogram(trace)
	total := 0
	for _, n := range hist {
		total += n
	}
	if total != EthPriceWrites {
		t.Fatalf("histogram covers %d writes, want %d", total, EthPriceWrites)
	}
	// The regenerated marginals must match Table 1 within rounding:
	// 70.4% zero-read writes, 16.0% one-read writes.
	if frac := float64(hist[0]) / float64(total); math.Abs(frac-0.704) > 0.01 {
		t.Errorf("zero-read fraction = %.4f, want 0.704", frac)
	}
	if frac := float64(hist[1]) / float64(total); math.Abs(frac-0.160) > 0.01 {
		t.Errorf("one-read fraction = %.4f, want 0.160", frac)
	}
	// The long tail must exist: some write followed by 20 reads.
	if hist[20] == 0 {
		t.Error("no write with a 20-read burst; Table 1 has 0.13%")
	}
}

func TestEthPriceOracleDeterministic(t *testing.T) {
	a := EthPriceOracle("eth", 100, 32, 9)
	b := EthPriceOracle("eth", 100, 32, 9)
	if len(a) != len(b) {
		t.Fatal("same seed produced different lengths")
	}
	for i := range a {
		if a[i].Write != b[i].Write || a[i].Key != b[i].Key {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	c := EthPriceOracle("eth", 100, 32, 10)
	same := len(a) == len(c)
	if same {
		diff := false
		for i := range a {
			if a[i].Write != c[i].Write {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestEthPriceMultiAsset(t *testing.T) {
	trace := EthPriceOracleMultiAsset(4096, 10, 100, 32, 3)
	st := Describe(trace)
	if st.Writes != 1000 {
		t.Fatalf("writes = %d, want 100 bursts * 10 assets", st.Writes)
	}
	// The same 10 assets are updated per burst; reads hit the hot asset.
	if st.Keys != 10 {
		t.Fatalf("keys = %d, want the fixed 10-asset batch", st.Keys)
	}
	for _, op := range trace {
		if !op.Write && op.Key != AssetKey(0) {
			t.Fatalf("read of %s; every peek must hit the hot asset", op.Key)
		}
	}
}

func TestBtcRelayAppendOnly(t *testing.T) {
	trace := BtcRelay(200, 80, 1, 5)
	seen := map[string]bool{}
	for _, op := range trace {
		if op.Write {
			if seen[op.Key] {
				t.Fatalf("key %s written twice; BtcRelay must append", op.Key)
			}
			seen[op.Key] = true
		}
	}
	hist := BurstHistogram(trace)
	total := 0
	for _, n := range hist {
		total += n
	}
	if frac := float64(hist[0]) / float64(total); math.Abs(frac-0.937) > 0.01 {
		t.Errorf("zero-read fraction = %.4f, want 0.937 (Table 6)", frac)
	}
}

func TestBtcRelayReadDepth(t *testing.T) {
	trace := BtcRelay(500, 80, 6, 5)
	// Reads must reference existing block keys only.
	written := map[string]bool{}
	for _, op := range trace {
		if op.Write {
			written[op.Key] = true
		} else if !written[op.Key] {
			t.Fatalf("read of unwritten key %s", op.Key)
		}
	}
}

func TestBtcRelayPhasedIsWriteThenReadHeavy(t *testing.T) {
	trace := BtcRelayPhased(400, 80, 2, 11)
	mid := 0
	// Locate the 200th write: phase boundary.
	writes := 0
	for i, op := range trace {
		if op.Write {
			writes++
			if writes == 200 {
				mid = i
				break
			}
		}
	}
	first, second := Describe(trace[:mid]), Describe(trace[mid:])
	r1 := float64(first.Reads) / float64(first.Writes)
	r2 := float64(second.Reads) / float64(second.Writes)
	if r1 >= 1 {
		t.Fatalf("first phase read ratio = %.2f, want write-intensive (<1)", r1)
	}
	if r2 <= 2 {
		t.Fatalf("second phase read ratio = %.2f, want read-intensive (>2)", r2)
	}
}

func TestReadWriteDelays(t *testing.T) {
	trace := []Op{
		Write("a", nil), // write 0
		Write("b", nil), // write 1
		Read("a"),       // delay 1 (one write since a's)
		Write("c", nil), // write 2
		Read("a"),       // delay 2
		Read("c"),       // delay 0
	}
	got := ReadWriteDelays(trace)
	want := []int{1, 2, 0}
	if len(got) != len(want) {
		t.Fatalf("delays = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delays = %v, want %v", got, want)
		}
	}
}

func TestSampleBurstsApportionment(t *testing.T) {
	f := func(seed uint64) bool {
		bursts := SampleBursts(EthPriceDistribution, 790, seed)
		if len(bursts) != 790 {
			return false
		}
		zero := 0
		for _, b := range bursts {
			if b == 0 {
				zero++
			}
		}
		// Exact-frequency layout: 0.704*790 = 556.16 -> 556 or 557.
		return zero >= 555 && zero <= 558
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDescribeCountsScans(t *testing.T) {
	trace := []Op{Scan("a", 5), Read("b"), Write("c", nil)}
	st := Describe(trace)
	if st.Scans != 1 || st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
