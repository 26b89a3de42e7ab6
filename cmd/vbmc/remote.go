package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"ravbmc/internal/cache"
	"ravbmc/internal/obs"
	"ravbmc/internal/serve"
)

// remoteOptions carries the flag values the -remote path uses.
type remoteOptions struct {
	base       string
	file       string
	bench      string
	portfolio  bool
	k, l       int
	autoK      int
	contexts   int
	exactDedup bool
	timeout    time.Duration
	jsonOut    bool
	showTrace  bool
	traceOut   string
	traceFmt   string
	watch      bool
}

// localEngineFlags are the flags that shape only a local run: with
// -remote, vbmcd's own -search-workers, -reduce, -tmai and -jobs decide
// how the daemon searches.
var localEngineFlags = []string{"jobs", "reduce", "tmai", "workers"}

// checkRemoteFlags rejects a -remote run given any of localEngineFlags
// explicitly; set holds the names of the flags on the command line.
// Ignoring them would print a verdict the user believes was, say,
// reduced, when the daemon's settings decided it.
func checkRemoteFlags(set map[string]bool) error {
	for _, name := range localEngineFlags {
		if set[name] {
			return fmt.Errorf("-%s cannot be used with -remote: vbmcd's own flags decide how the daemon searches", name)
		}
	}
	return nil
}

// runRemote sends the verification to a vbmcd daemon and renders the
// reply with the same summary format and exit codes as a local run.
// The daemon's cache answers warm queries without re-exploring.
func runRemote(o remoteOptions) int {
	req := serve.VerifyRequest{
		Mode: cache.ModeVBMC, K: o.k, Unroll: o.l,
		MaxContexts: o.contexts, ExactDedup: o.exactDedup,
	}
	if o.portfolio {
		req.Mode = cache.ModePortfolio
	}
	if o.timeout > 0 {
		req.TimeoutSeconds = o.timeout.Seconds()
	}
	switch {
	case o.file != "" && o.bench != "":
		return fail(fmt.Errorf("give either -file or -bench, not both"))
	case o.file != "":
		src, err := os.ReadFile(o.file)
		if err != nil {
			return fail(err)
		}
		req.Program = string(src)
	case o.bench != "":
		req.Bench = o.bench
	default:
		return fail(fmt.Errorf("one of -file or -bench is required"))
	}

	client := serve.NewClient(o.base)

	// -watch: mint a client_ref so the event stream is addressable
	// before the verify response returns the run ID, then render the
	// daemon's SSE search frames as the same dashboard a local -watch
	// draws. The subscription races request admission, so 404s are
	// retried until the alias binds.
	var watchDone chan struct{}
	var watchCancel context.CancelFunc
	if o.watch {
		req.ClientRef = fmt.Sprintf("vbmc-%d-%x", os.Getpid(), time.Now().UnixNano())
		var wctx context.Context
		wctx, watchCancel = context.WithCancel(context.Background())
		defer watchCancel()
		watchDone = make(chan struct{})
		go watchRemote(wctx, client, req.ClientRef, watchDone)
	}

	var (
		resp serve.VerifyResponse
		err  error
	)
	start := time.Now()
	if o.autoK >= 0 {
		req.K, req.MaxK = 0, o.autoK
		resp, err = client.MinK(context.Background(), req)
		if err == nil && resp.MinK != nil && *resp.MinK >= 0 {
			req.K = *resp.MinK // for the summary line
		}
	} else {
		resp, err = client.Verify(context.Background(), req)
	}
	if watchDone != nil {
		// The stream's done frame trails the verify response by at most
		// a sampler tick; give it a moment, then cut the subscription.
		select {
		case <-watchDone:
		case <-time.After(3 * time.Second):
			watchCancel()
			<-watchDone
		}
	}
	if err != nil {
		return fail(err)
	}

	name := o.bench
	if name == "" {
		name = o.file
	}
	if o.jsonOut {
		out, _ := json.Marshal(resp)
		os.Stdout.Write(append(out, '\n'))
	} else {
		how := "computed"
		switch {
		case resp.Subsumed:
			how = fmt.Sprintf("cache subsumed from K'=%d", resp.SubsumedFromK)
		case resp.Cached:
			how = "cache hit"
		case resp.Collapsed:
			how = "collapsed onto concurrent run"
		}
		fmt.Printf("%s: %s (K=%d, L=%d, remote %s, %s, server %.3fs, round-trip %.3fs)\n",
			name, resp.Verdict, req.K, o.l, req.Mode, how,
			resp.Seconds, time.Since(start).Seconds())
		if resp.Detail != "" && resp.Verdict == cache.VerdictDisagree {
			fmt.Print(resp.Detail)
		}
	}
	if resp.Witness != "" {
		if o.showTrace {
			fmt.Print(resp.Witness)
		}
		if o.traceOut != "" {
			// The daemon ships the witness as ravbmc.witness/v1 JSONL;
			// that is the only format available remotely.
			if o.traceFmt != "jsonl" {
				return fail(fmt.Errorf("-remote supports -trace-format jsonl only (got %q)", o.traceFmt))
			}
			if err := os.WriteFile(o.traceOut, []byte(resp.Witness), 0o644); err != nil {
				return fail(err)
			}
		}
	}
	switch resp.Verdict {
	case cache.VerdictUnsafe:
		return 1
	case cache.VerdictSafe:
		return 0
	case cache.VerdictDisagree:
		return 4
	}
	return 2
}

// watchRemote drives the -remote -watch dashboard: it subscribes to
// the run's SSE stream (retrying while the client_ref alias is not yet
// bound) and redraws a Watch from every search frame until the done
// frame or cancellation.
func watchRemote(ctx context.Context, client *serve.Client, ref string, done chan<- struct{}) {
	defer close(done)
	w := obs.NewWatch(os.Stderr)
	for {
		err := client.StreamEvents(ctx, ref, func(event string, data []byte) error {
			switch event {
			case "search":
				var p obs.SearchPoint
				if json.Unmarshal(data, &p) == nil {
					w.Update(p)
				}
			case "done":
				var d struct {
					Status  string `json:"status"`
					Verdict string `json:"verdict"`
				}
				if json.Unmarshal(data, &d) == nil {
					w.Close(fmt.Sprintf("run %s: %s", d.Status, d.Verdict))
				}
			}
			return nil
		})
		if err == serve.ErrRunNotFound {
			select {
			case <-ctx.Done():
				return
			case <-time.After(200 * time.Millisecond):
				continue
			}
		}
		return
	}
}
