package repl_test

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"grub/internal/repl"
	"grub/internal/server"
)

// TestClientKeepsOneConnection: a tailer's page fetches, and the JSON
// snapshot fetch after them, all ride one keep-alive connection. Closing a
// chunked body short of EOF — right after json.Decoder returned, ahead of
// the terminating chunk — made the transport drop the connection and dial
// again for the next fetch.
func TestClientKeepsOneConnection(t *testing.T) {
	g, err := server.NewGatewayWithOptions(server.GatewayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	var opened atomic.Int64
	srv := httptest.NewUnstartedServer(server.NewHandler(g))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)

	if err := g.CreateFeed(server.FeedConfig{ID: "f", EpochOps: 4}); err != nil {
		t.Fatal(err)
	}
	writeBatches(t, g, "f", 200, 0)

	c := &repl.Client{Base: srv.URL, HTTP: &http.Client{Transport: &http.Transport{}}}
	var from uint64
	pages := 0
	for {
		page, err := c.Log("f", 0, from, 16)
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Entries) == 0 {
			break
		}
		from = page.Entries[len(page.Entries)-1].Seq
		pages++
	}
	if pages < 10 {
		t.Fatalf("log of 200 batches came in %d pages, want a multi-page fetch", pages)
	}
	if _, err := c.Snapshot("f", 0); err != nil {
		t.Fatal(err)
	}
	if n := opened.Load(); n != 1 {
		t.Errorf("%d sequential fetches opened %d connections, want 1", pages+2, n)
	}
}
