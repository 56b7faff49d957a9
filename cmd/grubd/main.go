// Command grubd serves the multi-tenant GRuB feed gateway over HTTP.
//
// Feeds are created at runtime through the API; each one runs on its own
// simulated chain, hash-partitioned across "shards"-many worker goroutines
// when created with shards in its config (see internal/server and
// internal/shard).
//
// With -data-dir the gateway is durable: every applied batch is logged
// through a per-shard write-ahead log before it executes, -snapshot-every
// controls how often each shard compacts its log into a state snapshot, and
// a restart with the same -data-dir recovers every feed — same keys, same
// replication decisions going forward, same cumulative Gas.
//
// With -follow the daemon runs as a read-only replica of another grubd: it
// mirrors the leader's feeds, ships their per-shard replication logs
// (bootstrapping from verified snapshots when behind), and serves the same
// Merkle-proven reads from the replicated state. Writes answer 403 with a
// Leader header pointing at the leader (the Go client auto-follows it).
// Combine with -data-dir for a follower that resumes tailing from its own
// WAL and cursor after a restart.
//
// With -join the daemon runs as one node of a self-routing gateway cluster
// (internal/cluster): the flag lists the other members' URLs, feeds are
// placed across nodes by consistent hashing, every node accepts every
// request — non-owners transparently forward writes to the owner and serve
// verified reads from their local replica — feeds migrate live between
// nodes (POST /cluster/feeds/{id}/move), and a dead owner's feeds fail
// over to an anchor-verified successor automatically. -advertise sets the
// URL the other members reach this node at (defaults to the bound listen
// address, which only works when that address is routable), and -node-id
// sets a display name. Combine with -data-dir to persist the node's
// placement map alongside its feeds. -join and -follow are mutually
// exclusive: a cluster node is already a replica of every feed it does not
// own.
//
// On SIGINT or SIGTERM the daemon shuts down gracefully: it stops accepting
// connections, finishes in-flight requests, drains every feed worker —
// taking a final snapshot and flushing each feed's store when persistence
// is on — and exits 0.
//
// Observability: -slow-ms N logs one JSON line (with the batch's trace ID
// and per-stage span breakdown) for every write batch slower than N
// milliseconds, and -debug-addr serves net/http/pprof on a separate
// listener, kept off the public API port. GET /metrics serves Prometheus
// text including per-stage latency histograms, and clients can tag a batch
// with an X-Grub-Trace header to correlate it across the gateway's spans.
//
// Usage:
//
//	grubd [-addr :8080] [-max-body 8388608] [-data-dir /var/lib/grubd]
//	      [-snapshot-every 256] [-sync-writes] [-follow http://leader:8080]
//	      [-join http://b:8080,http://c:8080] [-advertise http://a:8080]
//	      [-node-id a] [-repl-retain 256] [-slow-ms 0] [-debug-addr addr]
//	      [-version]
//
// Then, for example:
//
//	curl -X POST localhost:8080/feeds -d '{"id":"prices","policy":"memoryless","k":2,"shards":4}'
//	curl -X POST localhost:8080/feeds/prices/ops \
//	     -d '{"ops":[{"type":"write","key":"ETH-USD","value":"MjE1MC43NQ=="}]}'
//	curl localhost:8080/feeds/prices/stats
//	curl localhost:8080/feeds/prices/shards
//	curl -X POST localhost:8080/feeds/prices/snapshot
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"grub/internal/cluster"
	"grub/internal/repl"
	"grub/internal/server"
)

// syncWriter serializes banner writes. The drain goroutine logs on signal
// delivery, which establishes no happens-before edge with the serve
// goroutine's own writes, so the shared writer needs a lock.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "grubd:", err)
		os.Exit(1)
	}
}

// drainTimeout bounds how long shutdown waits for in-flight requests.
const drainTimeout = 10 * time.Second

// Connection hygiene for both listeners: a client that trickles its request
// headers, or parks an idle keep-alive connection, is disconnected instead
// of holding a server goroutine and a descriptor forever. Bodies are not
// time-bounded (a large batch on a slow link is legitimate; -max-body caps
// its size).
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// headerTimeout is the ReadHeaderTimeout newHTTPServer applies; tests
// shorten it.
var headerTimeout = readHeaderTimeout

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
}

// run parses flags and serves until the listener fails, stop is closed, or
// SIGINT/SIGTERM arrives (graceful shutdown, nil error). onReady (optional)
// receives the bound address after the listener is up; tests use it to find
// the ephemeral port.
func run(args []string, w io.Writer, onReady func(net.Addr), stop <-chan struct{}) error {
	fs := flag.NewFlagSet("grubd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	maxBody := fs.Int64("max-body", server.DefaultMaxBodyBytes, "POST body size cap in bytes (413 beyond it)")
	dataDir := fs.String("data-dir", "", "persist feeds under this directory and recover them on start (empty = in-memory)")
	snapshotEvery := fs.Int("snapshot-every", 256, "per-shard batches between automatic snapshots (0 = shutdown/explicit only)")
	syncWrites := fs.Bool("sync-writes", false, "fsync every durable log append")
	follow := fs.String("follow", "", "replicate from this leader gateway URL and serve read-only (follower mode)")
	join := fs.String("join", "", "comma-separated peer gateway URLs to form a self-routing cluster with (cluster mode)")
	advertise := fs.String("advertise", "", "URL the other cluster members reach this node at (default: the bound listen address)")
	nodeID := fs.String("node-id", "", "cluster display name for this node (default: the advertised URL)")
	replRetain := fs.Int("repl-retain", 0, "replication log entries retained per shard for followers (0 = default 256; further-behind followers bootstrap from a snapshot)")
	slowMS := fs.Int("slow-ms", 0, "log one JSON line with the per-stage span breakdown for every write batch slower than this many milliseconds (0 = off)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this separate listen address (empty = off)")
	version := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintf(w, "grubd %s\n", server.Version)
		return nil
	}
	if *follow != "" && *join != "" {
		return fmt.Errorf("-follow and -join are mutually exclusive: a cluster node already replicates every feed it does not own")
	}
	gopts := server.GatewayOptions{DataDir: *dataDir, SnapshotEvery: *snapshotEvery, SyncWrites: *syncWrites, ReplRetain: *replRetain}
	sc := serveConfig{
		addr: *addr, maxBody: *maxBody, follow: *follow,
		join: *join, advertise: *advertise, nodeID: *nodeID,
		slowOp: time.Duration(*slowMS) * time.Millisecond, debugAddr: *debugAddr,
	}
	return serve(sc, gopts, w, onReady, stop)
}

// serveConfig carries the HTTP-layer knobs from flag parsing to serve.
type serveConfig struct {
	addr      string
	maxBody   int64
	follow    string
	join      string
	advertise string
	nodeID    string
	slowOp    time.Duration
	debugAddr string
}

// debugServer serves net/http/pprof on its own listener. The profiling
// surface stays off the public API mux: an explicit mux with only the pprof
// routes, bound to an address the operator chose for it.
func debugServer(addr string) (*http.Server, net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return newHTTPServer(mux), ln, nil
}

func serve(sc serveConfig, gopts server.GatewayOptions, w io.Writer, onReady func(net.Addr), stop <-chan struct{}) error {
	w = &syncWriter{w: w}
	start := time.Now()
	g, err := server.NewGatewayWithOptions(gopts)
	if err != nil {
		return err
	}
	recovery := time.Since(start)
	ln, err := net.Listen("tcp", sc.addr)
	if err != nil {
		g.Close()
		return err
	}
	hc := server.HandlerConfig{MaxBodyBytes: sc.maxBody, SlowOp: sc.slowOp}
	var follower *repl.Follower
	if sc.follow != "" {
		follower = repl.NewFollower(repl.Options{Leader: sc.follow, Pipeline: g.Pipeline()}, g.ReplTarget())
		hc.Follower = follower
	}
	var node *cluster.Node
	if sc.join != "" {
		// The cluster node needs the bound listener first: with -addr :0
		// the advertised URL defaults to the ephemeral address.
		self := sc.advertise
		if self == "" {
			self = "http://" + ln.Addr().String()
		}
		var peers []string
		for _, p := range strings.Split(sc.join, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		statePath := ""
		if gopts.DataDir != "" {
			statePath = filepath.Join(gopts.DataDir, "cluster.json")
		}
		node, err = cluster.NewNode(cluster.Options{
			Self: self, NodeID: sc.nodeID, Peers: peers,
			Local: g.ClusterLocal(), StatePath: statePath,
			LoadDigest: g.Load().Snapshot,
		})
		if err != nil {
			ln.Close()
			g.Close()
			return err
		}
		hc.Cluster = node
	}
	var dbg *http.Server
	var dbgLn net.Listener
	if sc.debugAddr != "" {
		dbg, dbgLn, err = debugServer(sc.debugAddr)
		if err != nil {
			ln.Close()
			g.Close()
			return err
		}
	}
	srv := newHTTPServer(server.NewHandlerConfig(g, hc))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	// The drainer waits for a shutdown trigger, then stops accepting
	// connections, finishes in-flight requests and drains the feed
	// workers. Serve returns ErrServerClosed once Shutdown begins; run
	// waits for the drain to complete on every exit path (failed too), so
	// returning means fully stopped — no leaked worker goroutines.
	failed := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		select {
		case sig := <-sigc:
			fmt.Fprintf(w, "grubd: %v: draining and shutting down\n", sig)
		case <-stop:
		case <-failed:
		}
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		srv.Shutdown(ctx)
		if dbg != nil {
			dbg.Shutdown(ctx)
		}
		// Stop the replication tailers before their target drains.
		if follower != nil {
			follower.Close()
		}
		if node != nil {
			node.Close()
		}
		g.Close()
	}()

	if gopts.DataDir != "" {
		fmt.Fprintf(w, "grubd: persisting feeds under %s (%d recovered in %.1f ms)\n",
			gopts.DataDir, len(g.Feeds()), float64(recovery.Microseconds())/1000)
	}
	if follower != nil {
		follower.Start()
		fmt.Fprintf(w, "grubd: following leader %s (read-only replica)\n", follower.Leader())
	}
	if node != nil {
		node.Start()
		fmt.Fprintf(w, "grubd: cluster node %s (%d members)\n", node.Self(), len(node.Members()))
	}
	if sc.slowOp > 0 {
		fmt.Fprintf(w, "grubd: logging batches slower than %v\n", sc.slowOp)
	}
	if dbg != nil {
		go dbg.Serve(dbgLn)
		fmt.Fprintf(w, "grubd: pprof listening on http://%s/debug/pprof/\n", dbgLn.Addr())
	}
	fmt.Fprintf(w, "grubd: gateway listening on http://%s\n", ln.Addr())
	if onReady != nil {
		onReady(ln.Addr())
	}
	err = srv.Serve(ln)
	close(failed)
	<-drained
	if err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}
