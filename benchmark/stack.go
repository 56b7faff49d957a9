package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"grub/internal/core"
	"grub/internal/server"
	"grub/internal/workload/ycsb"
)

// node is a gateway served over loopback HTTP.
type node struct {
	gw  *server.Gateway
	srv *http.Server
	url string
}

// serve exposes gw on an ephemeral loopback port.
func serve(gw *server.Gateway, hc server.HandlerConfig) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{gw: gw, srv: &http.Server{Handler: server.NewHandlerConfig(gw, hc)}, url: "http://" + ln.Addr().String()}
	go n.srv.Serve(ln) // returns when stop closes the listener
	return n, nil
}

// stop closes the listener and every connection; the gateway stays open.
func (n *node) stop() { n.srv.Close() }

// keepAlive returns an HTTP client with its own connection pool: one
// closed-loop caller per client means one keep-alive connection each.
func keepAlive() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute},
		Timeout:   60 * time.Second,
	}
}

func closeIdle(hc *http.Client) { hc.Transport.(*http.Transport).CloseIdleConnections() }

// httpStack is a gateway behind loopback HTTP with one keep-alive client
// per closed-loop caller.
type httpStack struct {
	node    *node
	closed  bool
	clients []*server.Client
	https   []*http.Client
}

// newHTTPStack opens a gateway (durable when opts.DataDir is set), serves
// it, creates every feed and preloads it in process.
func newHTTPStack(opts server.GatewayOptions, feeds []feedInputs) (*httpStack, error) {
	gw, err := server.NewGatewayWithOptions(opts)
	if err != nil {
		return nil, err
	}
	n, err := serve(gw, server.HandlerConfig{})
	if err != nil {
		gw.Kill()
		return nil, err
	}
	s := &httpStack{node: n}
	for _, f := range feeds {
		if err := gw.CreateFeed(f.cfg); err != nil {
			s.close()
			return nil, err
		}
		do := func(ops []core.Op) ([]core.OpResult, error) { return gw.Do(f.cfg.ID, ops) }
		if err := doAll(do, f.preload); err != nil {
			s.close()
			return nil, fmt.Errorf("preload %s: %w", f.cfg.ID, err)
		}
		hc := keepAlive()
		s.https = append(s.https, hc)
		s.clients = append(s.clients, &server.Client{BaseURL: n.url, HTTP: hc})
	}
	return s, nil
}

// close stops the server and drops the gateway without a final snapshot
// (teardown is not measured).
func (s *httpStack) close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, hc := range s.https {
		closeIdle(hc)
	}
	s.node.stop()
	s.node.gw.Kill()
}

// preloadChunk is how many preload writes go into one batch.
const preloadChunk = 1024

// chunk splits ops into batches of at most n.
func chunk(ops []core.Op, n int) [][]core.Op {
	var out [][]core.Op
	for len(ops) > n {
		out = append(out, ops[:n])
		ops = ops[n:]
	}
	if len(ops) > 0 {
		out = append(out, ops)
	}
	return out
}

// doAll applies batches through do, failing on a transport error or a
// per-op error.
func doAll(do func([]core.Op) ([]core.OpResult, error), batches [][]core.Op) error {
	for _, b := range batches {
		res, err := do(b)
		if err != nil {
			return err
		}
		for _, r := range res {
			if r.Err != "" {
				return fmt.Errorf("op on %q: %s", r.Key, r.Err)
			}
		}
	}
	return nil
}

// ycsbKeys lists the canonical keys of an n-record YCSB store.
func ycsbKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = ycsb.Key(i)
	}
	return keys
}

// parallel runs jobs on GOMAXPROCS workers and returns the first error.
func parallel(jobs []func() error) error {
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				errs[j] = jobs[j]()
			}
		}()
	}
	for j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
