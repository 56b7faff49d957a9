package server

import (
	"fmt"
	"net/http"
	"sync"

	"grub/internal/cluster"
	"grub/internal/obs"
	"grub/internal/stream"
)

// Metrics federation: GET /cluster/metrics and GET /cluster/load on any
// node answer for the whole cluster from one fan-out. The answering node
// takes its own families in-process (renderMetrics, no text in between)
// and scrapes every peer's /metrics concurrently over the node's streams
// (bounded fan-in; each hop bounded by the node's peer timeout and
// stream.MaxAnswer, like every other hop), parsing each with the obs
// exposition parser. /cluster/metrics merges the families with a `node`
// label distinguishing the sources; /cluster/load reads each member's
// grub_feed_load_* gauges back into per-feed loads. A peer that is down,
// slow or serving malformed text contributes nothing but its
// grub_cluster_scrape_ok marker (or its `ageMs: -1` row) — a dead node
// makes either view smaller, never hanging or poisoning it.

// federationFanIn bounds concurrent peer scrapes.
const federationFanIn = 4

// memberScrape is one member's contribution to a cluster view.
type memberScrape struct {
	member string
	fams   []obs.Family
	ok     bool
}

// scrapeMembers takes every member's metric families, in members' order:
// self's in-process, each peer's over the node's streams. It is the one
// fan-out behind both cluster views.
func (a *api) scrapeMembers(members []cluster.MemberStatus) []memberScrape {
	scrapes := make([]memberScrape, len(members))
	sem := make(chan struct{}, federationFanIn)
	var wg sync.WaitGroup
	for i, m := range members {
		if m.Self {
			// Self's families are the ones /metrics writes: no loopback
			// round trip and no text to parse back.
			scrapes[i] = memberScrape{member: m.URL, fams: renderMetrics(a.g, a.node, a.slow), ok: true}
			continue
		}
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fams, err := scrapePeer(a.node.Client(), peer)
			scrapes[i] = memberScrape{member: peer, fams: fams, ok: err == nil}
		}(i, m.URL)
	}
	wg.Wait()
	return scrapes
}

// clusterMetrics serves GET /cluster/metrics. Without a cluster node it
// answers 503, like the rest of the /cluster/* surface.
func (a *api) clusterMetrics(c *call, rep *reply) {
	if a.node == nil {
		rep.clusterDisabled()
		return
	}
	scrapes := a.scrapeMembers(a.node.Status().Members)
	rep.ContentType = expositionType
	obs.WriteFamilies(rep, append([]obs.Family{scrapeOKFamily(scrapes)}, mergeScrapes(scrapes)...))
}

// clusterLoad serves GET /cluster/load: one row per member, its loads read
// from that member's load gauges, and feeds merged from the rows that were
// read. A standalone gateway answers its own tracker's snapshot and no
// rows.
func (a *api) clusterLoad(c *call, rep *reply) {
	if a.node == nil {
		rep.json(http.StatusOK, LoadResponse{Feeds: a.g.Load().Snapshot()})
		return
	}
	st := a.node.Status()
	resp := LoadResponse{Node: st.Self}
	var read [][]obs.Family
	for i, sc := range a.scrapeMembers(st.Members) {
		m := st.Members[i]
		nl := NodeLoad{Node: m.URL, Self: m.Self, Alive: m.Alive, AgeMS: -1}
		if sc.ok {
			nl.AgeMS, nl.Loads = 0, obs.ReadLoads(sc.fams)
			read = append(read, sc.fams)
		}
		resp.Nodes = append(resp.Nodes, nl)
	}
	resp.Feeds = obs.ReadLoads(read...)
	rep.json(http.StatusOK, resp)
}

// scrapePeer fetches and parses one peer's /metrics. A peer that fails,
// answers another status or serves malformed text is marked failed
// (grub_cluster_scrape_ok 0) and skipped.
func scrapePeer(c *cluster.Client, peer string) ([]obs.Family, error) {
	ans, err := c.Send(peer, &stream.Request{Route: stream.RouteMetrics})
	if err != nil {
		return nil, err
	}
	defer ans.Close()
	if ans.Status != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", peer, ans.ErrorText())
	}
	return obs.ParseExposition(string(ans.Body))
}

// scrapeOKFamily marks each member's scrape outcome, so a consumer can
// tell "peer is idle" from "peer is unreachable/stale".
func scrapeOKFamily(scrapes []memberScrape) obs.Family {
	fam := obs.Family{
		Name: "grub_cluster_scrape_ok",
		Help: "Whether the member's registry was scraped for this federated exposition (0 = down or malformed; its series are absent).",
		Type: "gauge",
	}
	for _, sc := range scrapes {
		v := 0.0
		if sc.ok {
			v = 1
		}
		fam.Add(v, "node", sc.member)
	}
	return fam
}

// mergeScrapes folds the per-member families into one list: families
// merge by name (the first member with samples of one gives its HELP/TYPE
// and its place; a name that changes type across members keeps only
// matching samples, so the output stays a valid exposition), and every
// sample gains a node label naming its source. Per-member sample order is preserved, so the merged document
// parses cleanly — no duplicate series across nodes.
func mergeScrapes(scrapes []memberScrape) []obs.Family {
	var out []obs.Family
	byName := make(map[string]int)
	for _, sc := range scrapes {
		if !sc.ok {
			continue
		}
		nodeLabel := obs.LabelPair{Name: "node", Value: sc.member}
		for _, f := range sc.fams {
			if len(f.Samples) == 0 {
				continue
			}
			idx, seen := byName[f.Name]
			if !seen {
				idx = len(out)
				byName[f.Name] = idx
				out = append(out, obs.Family{Name: f.Name, Help: f.Help, Type: f.Type})
			} else if out[idx].Type != f.Type {
				continue
			}
			for _, s := range f.Samples {
				s.Labels = append([]obs.LabelPair{nodeLabel}, s.Labels...)
				out[idx].Samples = append(out[idx].Samples, s)
			}
		}
	}
	return out
}
