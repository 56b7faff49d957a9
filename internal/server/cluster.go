package server

import (
	"cmp"
	"fmt"
	"net/http"
	"time"

	"grub/internal/cluster"
	"grub/internal/obs"
	"grub/internal/query"
	"grub/internal/stream"
)

// Cluster mode glue: a cluster.Node drives the gateway as its cluster.Local
// (*Gateway implements it), and the HTTP layer (http.go) consults the
// node's RouteWrite decision on every write-path request — applying locally
// when this node owns the feed, transparently proxying to the owner
// otherwise (api.forward), and answering 503/421 for fenced, quorumless
// or misdirected requests.

var _ cluster.Local = (*Gateway)(nil)

// Anchors returns the same per-shard trust anchors GET /feeds/{id}/roots
// serves — the document promotion candidates and migration compare across
// nodes.
func (g *Gateway) Anchors(feed string) ([]query.RootInfo, error) {
	e, err := g.Query(feed)
	if err != nil {
		return nil, err
	}
	return e.Roots()
}

// forward proxies a write-path call to the feed's owner over the node's
// streams, stamping the sender's placement epoch and the Forwarded flag (so
// a second routing disagreement surfaces as 421 + Leader, never a proxy
// loop), and relays the owner's answer verbatim. The call goes as the frame
// it came as, or as the frame its HTTP request reads as, so a batch crosses
// the hop in the form the client chose and its answer comes back in the form
// the client asked for. It returns the owner's status code (0 when the owner
// was unreachable or refused the stream). The hop is bounded by the node's
// cluster.Options.HTTP Timeout, not by the call's context: a client that goes
// away does not cut a batch the owner may be applying.
//
// When tr is non-nil the hop is stitched into the trace: the owner
// receives this trace's ID and a parent-span reference ("node:forward"),
// and the per-stage spans it returns merge back into tr, shifted onto this
// node's timeline — one trace ID, both nodes' spans.
func (a *api) forward(c *call, rep *reply, owner string, epoch uint64, tr *obs.Trace) int {
	req := c.Request
	req.Epoch, req.Flags, req.Parent = epoch, req.Flags|stream.Forwarded, ""
	if tr != nil {
		req.TraceID, req.Parent = tr.ID(), tr.Node()+":"+obs.StageForward
	}
	hopStart := time.Now()
	ans, err := a.node.Client().Send(owner, &req)
	if err != nil {
		// The owner may have just died; the client retries (bounded
		// backoff) and by then failover has usually re-homed the feed.
		rep.json(http.StatusBadGateway, errorBody{Error: fmt.Sprintf("cluster: forward to owner %s failed: %v", owner, err), Leader: owner})
		rep.Leader, rep.RetryAfter = owner, 1
		return 0
	}
	defer ans.Close()
	if tr != nil {
		if spans, err := obs.DecodeSpans(ans.Spans); err == nil {
			tr.AddRemoteSpans(spans, hopStart.Sub(tr.Start()))
		}
	}
	rep.Status = ans.Status
	rep.ContentType = cmp.Or(ans.ContentType, rep.ContentType)
	rep.Leader = cmp.Or(ans.Leader, rep.Leader)
	rep.RetryAfter = cmp.Or(ans.RetryAfter, rep.RetryAfter)
	rep.TraceID = cmp.Or(ans.TraceID, rep.TraceID)
	*rep.body = append((*rep.body)[:0], ans.Body...)
	return ans.Status
}
