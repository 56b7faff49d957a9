package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"grub/internal/repl"
	"grub/internal/server"
)

func TestPolicies(t *testing.T) {
	for _, pol := range []string{"memoryless", "memorizing", "bl1", "bl2"} {
		var buf bytes.Buffer
		if err := run([]string{"-ops", "48", "-epoch", "8", "-policy", pol}, &buf); err != nil {
			t.Errorf("policy %s: %v", pol, err)
		}
		if !strings.Contains(buf.String(), "results: delivered=") {
			t.Errorf("policy %s: results line missing:\n%s", pol, buf.String())
		}
	}
}

func TestUnknownPolicy(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-policy", "bogus"}, &buf); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestLoadUnknownWorkload and TestLoadRejectsBadCounts pin that the old
// load driver is gone (gateway write load is measured by ./benchmark):
// -load and its flags are undefined, so every such invocation is refused.
func TestLoadUnknownWorkload(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-load", "-workload", "Z"}, &buf)
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	if !strings.Contains(err.Error(), "flag provided but not defined: -load") {
		t.Errorf("err = %v, want -load undefined", err)
	}
}

func TestLoadRejectsBadCounts(t *testing.T) {
	for _, args := range [][]string{
		{"-load", "-feeds", "0"},
		{"-load", "-clients", "0"},
		{"-load", "-batches", "-1"},
	} {
		var buf bytes.Buffer
		err := run(args, &buf)
		if err == nil {
			t.Errorf("args %v accepted", args)
		} else if !strings.Contains(err.Error(), "flag provided but not defined: -load") {
			t.Errorf("args %v: err = %v, want -load undefined", args, err)
		}
	}
}

// TestVerifyStandalone drives the authenticated read path end to end: an
// in-process gateway, concurrent verifying light clients, every proof
// checked against the advertised roots.
func TestVerifyStandalone(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-verify", "-clients", "4", "-reads", "8",
		"-records", "24", "-shards", "2"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "verified ops/sec") || !strings.Contains(out, "proof bytes/op") {
		t.Errorf("verify summary missing:\n%s", out)
	}
	if !strings.Contains(out, "shard 0 root") || !strings.Contains(out, "shard 1 root") {
		t.Errorf("per-shard root lines missing:\n%s", out)
	}
}

// TestVerifyAgainstReplicas spreads the verified readers across replica
// gateways: an in-process leader takes the writes, two replicas tail its
// replication log, and every proof verifies against the replicas'
// advertised roots.
func TestVerifyAgainstReplicas(t *testing.T) {
	leader := server.NewGateway()
	defer leader.Close()
	leaderSrv := httptest.NewServer(server.NewHandler(leader))
	defer leaderSrv.Close()

	var replicas []string
	for i := 0; i < 2; i++ {
		fg := server.NewGateway()
		defer fg.Close()
		f := repl.NewFollower(repl.Options{
			Leader: leaderSrv.URL,
			Poll:   2 * time.Millisecond, Refresh: 10 * time.Millisecond,
		}, fg.ReplTarget())
		fsrv := httptest.NewServer(server.NewHandler(fg))
		defer fsrv.Close()
		f.Start()
		defer f.Close()
		replicas = append(replicas, fsrv.URL)
	}

	var buf bytes.Buffer
	args := []string{"-verify", "-gateway", leaderSrv.URL,
		"-replicas", strings.Join(replicas, ","),
		"-clients", "4", "-reads", "8", "-records", "24", "-shards", "2"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2 read node(s)") || !strings.Contains(out, "caught up") {
		t.Errorf("replica summary missing:\n%s", out)
	}
	if !strings.Contains(out, "verified ops/sec") {
		t.Errorf("verify summary missing:\n%s", out)
	}
}
