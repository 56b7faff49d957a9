// Command grubtop is a terminal cluster-load viewer for grubd. It polls
// one node's GET /cluster/load and GET /cluster/status over a Go-to-Go
// stream, through a cluster.Client as a peer would — any node will do,
// since each /cluster/load reads every member's load gauges — and renders
// the cluster's heat each frame: per-node throughput, with whether the
// member answered (live) or not (unreachable), the hottest feeds
// (cluster-wide EWMA ops/sec and gas/sec, with owner), member liveness,
// and any halted shards. Pointed at a standalone gateway it degrades to a
// single-node feed-load view.
//
// Usage:
//
//	grubtop [-node http://host:8080] [-interval 2s] [-top 10]
//	grubtop -iterations 1 -no-clear   # one frame, scripting-friendly
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"text/tabwriter"
	"time"

	"grub/internal/cluster"
	"grub/internal/repl"
	"grub/internal/server"
	"grub/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "grubtop:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("grubtop", flag.ContinueOnError)
	node := fs.String("node", "http://127.0.0.1:8080", "gateway or cluster node to poll")
	interval := fs.Duration("interval", 2*time.Second, "poll interval between frames")
	iterations := fs.Int("iterations", 0, "frames to render before exiting (0 = run until interrupted)")
	top := fs.Int("top", 10, "hottest feeds to show")
	noClear := fs.Bool("no-clear", false, "append frames instead of clearing the terminal")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c := &cluster.Client{HTTP: &http.Client{Timeout: 5 * time.Second}}
	defer c.Close()
	for i := 0; ; i++ {
		err := renderFrame(w, c, *node, *top, !*noClear)
		if err != nil {
			if i == 0 {
				return err // unreachable from the start: fail loudly
			}
			// Mid-run blips (node restarting, brief partition) keep the
			// viewer alive; the next frame usually recovers.
			fmt.Fprintf(w, "grubtop: %v\n", err)
		}
		if *iterations > 0 && i+1 >= *iterations {
			return nil
		}
		time.Sleep(*interval)
	}
}

func renderFrame(w io.Writer, c *cluster.Client, node string, top int, clear bool) error {
	ans, err := c.Send(node, &stream.Request{Route: stream.RouteClusterLoad})
	if err != nil {
		return err
	}
	defer ans.Close()
	if ans.Status != http.StatusOK {
		return fmt.Errorf("%s: %s", stream.RouteClusterLoad.Pattern(), ans.ErrorText())
	}
	var load server.LoadResponse
	if err := json.Unmarshal(ans.Body, &load); err != nil {
		return err
	}
	st, err := c.Status(node)
	if err != nil {
		return err
	}
	if clear {
		fmt.Fprint(w, "\x1b[2J\x1b[H")
	}
	fmt.Fprintf(w, "grubtop  %s  %s\n", node, time.Now().Format("15:04:05"))
	if st.Enabled {
		alive := 0
		for _, m := range st.Members {
			if m.Alive {
				alive++
			}
		}
		fmt.Fprintf(w, "cluster: %d/%d members alive, quorum=%v, epoch=%d\n",
			alive, len(st.Members), st.Quorum, st.Epoch)
	} else {
		fmt.Fprintf(w, "standalone gateway (no cluster)\n")
	}

	if len(load.Nodes) > 0 {
		fmt.Fprintln(w)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "NODE\tALIVE\tSCRAPE\tFEEDS\tOPS/S\tGAS/S")
		for _, nl := range load.Nodes {
			ops, gas := 0.0, 0.0
			for _, fl := range nl.Loads {
				ops += fl.OpsPerSec
				gas += fl.GasPerSec
			}
			read := "live"
			if nl.AgeMS < 0 {
				read = "unreachable"
			}
			fmt.Fprintf(tw, "%s\t%v\t%s\t%d\t%.1f\t%.1f\n",
				nl.Node, nl.Alive, read, len(nl.Loads), ops, gas)
		}
		tw.Flush()
	}

	// Feed ownership and halted shards come from the status document.
	owner := make(map[string]string)
	type halt struct {
		feed  string
		shard int
		err   string
	}
	var halted []halt
	for _, fp := range st.Feeds {
		if !fp.Deleted {
			owner[fp.Feed] = fp.Owner
		}
		if fp.Tail == nil {
			continue
		}
		for _, ss := range fp.Tail.Shards {
			if ss.State == repl.StateHalted {
				halted = append(halted, halt{feed: fp.Feed, shard: ss.Shard, err: ss.Error})
			}
		}
	}

	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "FEED\tOPS/S\tGAS/S\tOWNER")
	feeds := load.Feeds
	if top > 0 && len(feeds) > top {
		feeds = feeds[:top]
	}
	for _, fl := range feeds {
		own := owner[fl.Feed]
		if own == "" && !st.Enabled {
			own = "local"
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%s\n", fl.Feed, fl.OpsPerSec, fl.GasPerSec, own)
	}
	tw.Flush()
	if len(feeds) == 0 {
		fmt.Fprintln(w, "(no recent traffic)")
	}

	for _, h := range halted {
		fmt.Fprintf(w, "HALTED %s/shard%d: %s\n", h.feed, h.shard, h.err)
	}
	return nil
}
