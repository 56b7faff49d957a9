package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"grub/internal/obs"
)

// TestMetricsExpositionPinned pins the bytes of a gateway's /metrics: a
// durable gateway with two feeds (one of them sharded) takes traced JSON
// batches, binary batches over a stream and one verified read, and its
// exposition must equal testdata/metrics.golden line for line — every
// HELP and TYPE line, every sample name and label block, in order, and
// every value that does not depend on timing. Values that do (stage
// bucket counts and sums, uptime, the load EWMAs) are masked as "~".
func TestMetricsExpositionPinned(t *testing.T) {
	g, err := NewGatewayWithOptions(GatewayOptions{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()
	vc := NewVerifyingClient(srv.URL)
	for _, cfg := range []FeedConfig{
		{ID: "alpha", Shards: 2, EpochOps: 2},
		{ID: "beta", Policy: "memoryless", K: 2, EpochOps: 2},
	} {
		if err := vc.CreateFeed(cfg); err != nil {
			t.Fatal(err)
		}
	}

	traced := func(feed, trace, body string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/feeds/"+feed+"/ops", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.TraceHeader, trace)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get(obs.TraceHeader) != trace {
			t.Fatalf("traced batch on %s: status %d, trace %q", feed, resp.StatusCode, resp.Header.Get(obs.TraceHeader))
		}
	}
	// alpha takes 12 ops to beta's 3, so its load leads in any window.
	for i, keys := range [][]string{{"a", "b", "c", "d"}, {"e", "f", "g", "h"}} {
		var ops []string
		for _, k := range keys {
			ops = append(ops, `{"type":"write","key":"`+k+`","value":"dg=="}`)
		}
		traced("alpha", "00000000000000a"+string(rune('0'+i)), `{"ops":[`+strings.Join(ops, ",")+`]}`)
	}
	traced("beta", "00000000000000b0", `{"ops":[{"type":"write","key":"x","value":"dg=="},{"type":"write","key":"y","value":"dg=="}]}`)
	if _, err := vc.Do("alpha", []Op{{Type: "write", Key: "i", Value: []byte("v")}, {Type: "read", Key: "a"},
		{Type: "write", Key: "j", Value: []byte("v")}, {Type: "read", Key: "b"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := vc.Do("beta", []Op{{Type: "read", Key: "x"}}); err != nil {
		t.Fatal(err)
	}
	if res, err := vc.Get("alpha", "a"); err != nil || !res.Found {
		t.Fatalf("verified read: %+v, %v", res, err)
	}

	// The load gauges count completed seconds only: wait until both feeds
	// show, so that the scrape's family set does not depend on timing.
	var text string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		text = string(body)
		if strings.Contains(text, `grub_feed_load_ops_per_sec{feed="beta"}`) &&
			strings.Contains(text, `grub_feed_load_ops_per_sec{feed="alpha"}`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("load gauges never showed both feeds:\n%s", text)
		}
	}
	// vc's stream is open, and counted, through the scrape: an unreachable
	// client's connection would close whenever the collector finalizes it.
	runtime.KeepAlive(vc)
	got := maskTiming(strings.ReplaceAll(text, `version="`+Version+`"`, `version="VERSION"`))
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d: got %q, want %q\nmasked exposition:\n%s", i+1, g, w, got)
		}
	}
}

// maskTiming replaces the value of every sample that depends on timing
// with "~".
func maskTiming(text string) string {
	timed := []string{"grub_stage_seconds_bucket", "grub_stage_seconds_sum", "grub_uptime_seconds",
		"grub_feed_load_ops_per_sec", "grub_feed_load_gas_per_sec"}
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		for _, name := range timed {
			if strings.HasPrefix(line, name+"{") || strings.HasPrefix(line, name+" ") {
				lines[i] = line[:strings.LastIndexByte(line, ' ')] + " ~"
			}
		}
	}
	return strings.Join(lines, "\n")
}
