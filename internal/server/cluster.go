package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"grub/internal/cluster"
	"grub/internal/obs"
	"grub/internal/query"
)

// Cluster mode glue: a cluster.Node drives the gateway through the
// cluster.Local adapter below, and the HTTP layer (http.go) consults the
// node's RouteWrite decision on every write-path request — applying locally
// when this node owns the feed, transparently proxying to the owner
// otherwise (forwardToOwner), and answering 503/421 for fenced, quorumless
// or misdirected requests.

// ClusterLocal adapts the gateway into the cluster.Local a cluster.Node
// drives: the repl.Target cluster tails replicate into, plus the read-only
// hooks feed placement and anchor-verified promotion need and the stage
// histograms the tails observe into.
func (g *Gateway) ClusterLocal() cluster.Local { return clusterLocal{replTarget{g}} }

type clusterLocal struct{ replTarget }

func (l clusterLocal) Feeds() []string { return l.g.Feeds() }

// Anchors returns the same per-shard trust anchors GET /feeds/{id}/roots
// serves — the document promotion candidates and migration compare across
// nodes.
func (l clusterLocal) Anchors(feed string) ([]query.RootInfo, error) {
	e, err := l.g.Query(feed)
	if err != nil {
		return nil, err
	}
	return e.Roots()
}

func (l clusterLocal) CloseFeed(feed string) error { return l.g.CloseFeed(feed) }

// Pipeline hands the node's peer followers the gateway's stage histograms,
// so their fetch/verify latencies land in this node's /metrics.
func (l clusterLocal) Pipeline() *obs.Pipeline { return l.g.Pipeline() }

// forwardToOwner proxies a write-path request to the feed's owner over the
// node's streams (peers), stamping the sender's placement epoch and the hop
// marker (so a second routing disagreement surfaces as 421 + Leader, never
// a proxy loop), and relays the owner's response verbatim. The request's
// Content-Type and Accept go along, so a batch crosses the hop in the form
// the client chose and its answer comes back in the form the client asked
// for. body is the request body to resend (the original may already be
// consumed). It returns the owner's status code (0 when the owner was
// unreachable). The hop is bounded by the node's cluster.Options.HTTP
// Timeout, not by r's context: a client that goes away does not cut a batch
// the owner may be applying.
//
// When tr is non-nil the hop is stitched into the trace: the owner
// receives this trace's ID and a parent-span reference ("node:forward"),
// and the per-stage spans it returns in X-Grub-Spans merge back into tr,
// shifted onto this node's timeline — one trace ID, both nodes' spans.
func forwardToOwner(w http.ResponseWriter, r *http.Request, body []byte, owner string, epoch uint64, peers *cluster.Client, tr *obs.Trace) int {
	pairs := []string{cluster.EpochHeader, strconv.FormatUint(epoch, 10), cluster.ForwardedHeader, "1"}
	for _, h := range []string{"Content-Type", "Accept"} {
		if v := r.Header.Get(h); v != "" {
			pairs = append(pairs, h, v)
		}
	}
	if tr != nil {
		pairs = append(pairs, obs.TraceHeader, tr.ID(), obs.ParentSpanHeader, tr.Node()+":"+obs.StageForward)
	} else if v := r.Header.Get(obs.TraceHeader); v != "" {
		pairs = append(pairs, obs.TraceHeader, v)
	}
	hopStart := time.Now()
	a, err := peers.Send(owner, r.Method, r.URL.RequestURI(), body, pairs...)
	if err != nil {
		// The owner may have just died; the client retries (bounded
		// backoff) and by then failover has usually re-homed the feed.
		w.Header().Set("Leader", owner)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusBadGateway, errorBody{Error: fmt.Sprintf("cluster: forward to owner %s failed: %v", owner, err), Leader: owner})
		return 0
	}
	defer a.Close()
	if tr != nil {
		if spans, err := obs.DecodeSpans(a.Header.Get(obs.SpanHeader)); err == nil {
			tr.AddRemoteSpans(spans, hopStart.Sub(tr.Start()))
		}
	}
	for _, h := range []string{"Content-Type", "Leader", "Retry-After", obs.TraceHeader} {
		if v := a.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(a.Status)
	w.Write(a.Body)
	return a.Status
}
