package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ravbmc/internal/cache"
	"ravbmc/internal/serve"
)

// endpoint is a running verification service.
type endpoint struct {
	url string
	// stop shuts the service down, waits for it to exit and reports its
	// peak resident set in MB.
	stop func() (float64, error)
}

// startDaemon starts a solo vbmcd on an ephemeral port with a fresh
// disk store in a temporary directory under work.
func startDaemon(bin, work string) (*endpoint, error) {
	dir, err := os.MkdirTemp(work, "vbmcd-")
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "vbmcd.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cleanup := func() {
		logf.Close()
		os.RemoveAll(dir)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-disk", filepath.Join(dir, "cache.jsonl"))
	cmd.Stderr = logf
	// Should this process die first, the kernel stops the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		cleanup()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		cleanup()
		return nil, fmt.Errorf("start vbmcd: %w", err)
	}
	// The first stdout line carries the bound address; the rest is
	// drained until the daemon exits and closes the pipe.
	first := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		r := bufio.NewReader(stdout)
		line, _ := r.ReadString('\n')
		first <- line
		io.Copy(io.Discard, r)
	}()
	wait := func() float64 {
		<-drained
		cmd.Wait() // exit status is judged by the caller from the requests served
		cleanup()
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			return float64(ru.Maxrss) / 1024
		}
		return 0
	}
	var line string
	select {
	case line = <-first:
	case <-time.After(30 * time.Second):
	}
	url, ok := strings.CutPrefix(strings.TrimSpace(line), "vbmcd listening on ")
	if !ok {
		cmd.Process.Kill()
		wait()
		return nil, fmt.Errorf("vbmcd did not report its address (got %q)", line)
	}
	stop := func() (float64, error) {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return wait(), err
		}
		select {
		case <-drained:
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			return wait(), errors.New("vbmcd did not drain within 30s")
		}
		return wait(), nil
	}
	return &endpoint{url: url, stop: stop}, nil
}

// startInProcess serves the verification API from this process, with
// the cache optionally filled before the first request.
func startInProcess(prefill func(*cache.Cache) error) (*endpoint, error) {
	c, err := cache.New(cache.Config{})
	if err != nil {
		return nil, err
	}
	if prefill != nil {
		if err := prefill(c); err != nil {
			c.Close()
			return nil, err
		}
	}
	s := serve.New(serve.Config{Cache: c})
	ts := httptest.NewServer(s.Handler())
	stop := func() (float64, error) {
		ts.Close()
		s.Close()
		return selfPeakRSS(), c.Close()
	}
	return &endpoint{url: ts.URL, stop: stop}, nil
}

// reply is one request as the client saw it.
type reply struct {
	latency float64
	resp    serve.VerifyResponse
	err     error
}

// drive sends every query to the service from conns closed-loop
// clients, each sending its next request when the previous reply is
// in. It returns the replies in query order and the wall time.
func drive(url string, qs []Query, conns int) ([]reply, float64) {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	defer client.CloseIdleConnections()
	out := make([]reply, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(qs) {
					return
				}
				out[i] = post(client, url, qs[i])
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start).Seconds()
}

// post sends one /v1/verify request. The timeout the request names is
// far above any query's cost, so the probe ladder's time slices never
// fire; the client-side deadline is the benchmark's safety net.
func post(client *http.Client, url string, q Query) reply {
	body, err := json.Marshal(serve.VerifyRequest{
		Program: q.Text, Bench: q.Bench, Mode: cache.ModeVBMC, K: q.K, Unroll: q.L, TimeoutSeconds: 600,
	})
	if err != nil {
		return reply{err: err}
	}
	ctx, cancel := context.WithTimeout(context.Background(), queryDeadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/verify", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	res, err := client.Do(req)
	if err != nil {
		return reply{latency: time.Since(start).Seconds(), err: err}
	}
	data, err := io.ReadAll(res.Body)
	res.Body.Close()
	r := reply{latency: time.Since(start).Seconds(), err: err}
	switch {
	case err != nil:
	case res.StatusCode/100 != 2:
		r.err = fmt.Errorf("HTTP %d: %s", res.StatusCode, bytes.TrimSpace(data))
	default:
		r.err = json.Unmarshal(data, &r.resp)
	}
	return r
}

// check compares a reply with the query's reference verdict.
func (r reply) check(q Query) error {
	if r.err != nil {
		return r.err
	}
	if want := verdictName(q.Unsafe); r.resp.Verdict != want {
		return fmt.Errorf("verdict %s, reference %s", r.resp.Verdict, want)
	}
	if q.Unsafe && (!r.resp.WitnessValidated || r.resp.Witness == "") {
		return errors.New("UNSAFE without a validated witness")
	}
	return nil
}

// scrape reads the unlabelled samples of the service's /metrics page.
func scrape(url string) (map[string]float64, error) {
	res, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// histMean is the mean of a scraped Prometheus histogram.
func histMean(m map[string]float64, family string) float64 {
	if n := m[family+"_count"]; n > 0 {
		return m[family+"_sum"] / n
	}
	return 0
}
