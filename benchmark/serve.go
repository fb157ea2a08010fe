//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"topkmon/internal/rngx"
	"topkmon/internal/serve"
	"topkmon/topk"
)

// The served workloads: serveTenants tenants, one closed-loop keep-alive
// client each (so per-tenant order, hence messages and top-k, is
// deterministic), serveBatch updates per request, a GET /topk in place of
// every readEvery-th op.
const (
	serveTenants = 2
	serveNodes   = 256
	serveK       = 4
	serveBatch   = 16
	readEvery    = 16
)

// Requests per client per pass: 50 000 updates on serve-volatile, 16 000
// under fsync.
const (
	volatileReqs = 50000 / serveBatch
	durableReqs  = 16000 / serveBatch
)

func serveWalk(reqs int) walkSpec {
	return walkSpec{
		n: serveNodes, contenders: serveBatch / 2, period: 200, waveLo: 1e6, waveHi: 2e6,
		restLo: 1e5, restHi: 9e5, noise: serveBatch / 2, amp: 50, steps: reqs,
	}
}

type serveRunner struct {
	env     runEnv
	durable bool
	reqs    int
	passes  int
}

func newServeRunner(durable bool) func(runEnv) (passRunner, error) {
	return func(env runEnv) (passRunner, error) {
		reqs := volatileReqs
		if durable {
			reqs = durableReqs
		}
		return &serveRunner{env: env, durable: durable, reqs: scaled(reqs, env.scale)}, nil
	}
}

// tenantPlan is one tenant's pre-generated traffic: everything its client
// sends, made in set-up so the timed loop only writes bytes to a socket.
type tenantPlan struct {
	name    string
	client  string
	cfg     serve.Config
	trace   walkTrace
	load    []byte   // the full-vector batch, seq 1
	bodies  [][]byte // one JSON batch per step, seq 2..
	queries []string // "?client=…&seq=…" per body
}

// encodeBatch is the wire form of one batch.
func encodeBatch(b []topk.Update) []byte {
	buf := make([]byte, 0, 32*len(b))
	buf = append(buf, '[')
	for i, u := range b {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"node":`...)
		buf = strconv.AppendInt(buf, int64(u.Node), 10)
		buf = append(buf, `,"value":`...)
		buf = strconv.AppendInt(buf, u.Value, 10)
		buf = append(buf, '}')
	}
	return append(buf, ']')
}

// plan generates every tenant's traffic from the run seed: one disjoint
// value stream, monitor seed and client id per tenant.
func (r *serveRunner) plan() []*tenantPlan {
	root := rngx.New(r.env.seed)
	plans := make([]*tenantPlan, serveTenants)
	for i := range plans {
		p := &tenantPlan{
			name:   "tenant" + strconv.Itoa(i),
			client: "client" + strconv.Itoa(i),
			cfg: serve.Config{
				Nodes: serveNodes, K: serveK, Eps: fmt.Sprintf("%d/%d", epsNum, epsDen),
				Engine: "lockstep", Monitor: "approx",
				Seed: root.Child(streamMonitor).ChildSeed(uint64(i)) | 1, // 0 would mean "server default"
			},
			trace: genWalk(serveWalk(r.reqs), root.Child(streamValues).ChildSeed(uint64(i))),
		}
		p.load = encodeBatch(p.trace.initial)
		p.bodies = make([][]byte, len(p.trace.batches))
		p.queries = make([]string, len(p.trace.batches))
		for j, b := range p.trace.batches {
			p.bodies[j] = encodeBatch(b)
			p.queries[j] = "?client=" + p.client + "&seq=" + strconv.Itoa(j+2)
		}
		plans[i] = p
	}
	return plans
}

// newClient returns an HTTP client that keeps exactly one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// do sends one request and drains the response; it returns the body size
// and whether the status was the wanted one.
func do(ctx context.Context, c *http.Client, method, url string, body []byte, want int) (int64, bool) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, false
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, false
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return n, err == nil && resp.StatusCode == want
}

// get fetches a URL's body.
func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// driveStats is what one client measured over its closed loop.
type driveStats struct {
	updates  []time.Duration
	reads    []time.Duration
	failed   int
	bytesIn  int64 // request bodies
	bytesOut int64 // response bodies
}

// driveTenant is one client's closed loop: post the next batch when the
// previous one is acked, with a GET /topk in place of every readEvery-th op.
func driveTenant(ctx context.Context, c *http.Client, base string, p *tenantPlan) driveStats {
	st := driveStats{updates: make([]time.Duration, 0, len(p.bodies))}
	post := base + "/v1/" + p.name + "/update"
	read := base + "/v1/" + p.name + "/topk"
	for j, body := range p.bodies {
		if ctx.Err() != nil {
			st.failed += len(p.bodies) - j
			break
		}
		t := time.Now()
		n, ok := do(ctx, c, http.MethodPost, post+p.queries[j], body, http.StatusOK)
		st.updates = append(st.updates, time.Since(t))
		st.bytesIn += int64(len(body))
		st.bytesOut += n
		if !ok {
			st.failed++
		}
		if (j+1)%(readEvery-1) == 0 {
			t := time.Now()
			_, ok := do(ctx, c, http.MethodGet, read, nil, http.StatusOK)
			st.reads = append(st.reads, time.Since(t))
			if !ok {
				st.failed++
			}
		}
	}
	return st
}

// scrape is a tenant's observable state: step count, top-k and cost.
type scrape struct {
	info, topk, cost []byte
}

func scrapeTenant(ctx context.Context, c *http.Client, base, name string) (scrape, error) {
	var s scrape
	var err error
	if s.info, err = get(ctx, c, base+"/v1/"+name); err != nil {
		return s, err
	}
	if s.topk, err = get(ctx, c, base+"/v1/"+name+"/topk"); err != nil {
		return s, err
	}
	s.cost, err = get(ctx, c, base+"/v1/"+name+"/cost")
	return s, err
}

// The fields of the /topk and /cost bodies the checks read.
type topkBody struct {
	Step int64 `json:"step"`
	TopK []int `json:"topk"`
}

type costBody struct {
	Steps            int64  `json:"steps"`
	Epochs           int64  `json:"epochs"`
	Messages         int64  `json:"messages"`
	NodeToServer     int64  `json:"nodeToServer"`
	Unicasts         int64  `json:"unicasts"`
	Broadcasts       int64  `json:"broadcasts"`
	MaxRoundsPerStep int64  `json:"maxRoundsPerStep"`
	MaxMessageBits   int    `json:"maxMessageBits"`
	IndexFallbacks   int64  `json:"indexFallbacks"`
	DroppedMsgs      int64  `json:"droppedMsgs"`
	DupMsgs          int64  `json:"dupMsgs"`
	Retries          int64  `json:"retries"`
	Resyncs          int64  `json:"resyncs"`
	StaleSteps       int64  `json:"staleSteps"`
	Check            string `json:"check"`
	Health           struct {
		State string `json:"state"`
	} `json:"health"`
	SilentInvalid bool `json:"silentInvalid"`
}

// cost is the served counters as the facade's Cost, field for field.
func (cb costBody) cost() topk.Cost {
	return topk.Cost{
		Messages: cb.Messages, NodeToServer: cb.NodeToServer, Unicasts: cb.Unicasts, Broadcasts: cb.Broadcasts,
		MaxRoundsPerStep: cb.MaxRoundsPerStep, MaxMessageBits: cb.MaxMessageBits, Steps: cb.Steps,
		IndexFallbacks: cb.IndexFallbacks, DroppedMsgs: cb.DroppedMsgs, DupMsgs: cb.DupMsgs,
		Retries: cb.Retries, Resyncs: cb.Resyncs, StaleSteps: cb.StaleSteps,
	}
}

// twin feeds the same batches to an embedded monitor built like the
// tenant's; the served top-k and cost must equal its. With a tracer it
// also times every UpdateBatch.
func twin(p *tenantPlan, n int, tr *tracer) (*topk.Monitor, error) {
	e, err := topk.NewEpsilon(epsNum, epsDen)
	if err != nil {
		return nil, err
	}
	mon, err := topk.New(p.cfg.K, e, topk.WithNodes(p.cfg.Nodes), topk.WithSeed(p.cfg.Seed))
	if err != nil {
		return nil, err
	}
	if err := mon.UpdateBatch(p.trace.initial); err != nil {
		return nil, err
	}
	for j, b := range p.trace.batches[:n] {
		var s int32
		if tr != nil {
			tr.op = int32(j)
			s = tr.begin(spUpdateBatch)
		}
		err := mon.UpdateBatch(b)
		if tr != nil {
			tr.end(s)
		}
		if err != nil {
			return nil, err
		}
	}
	return mon, nil
}

// checkAgainstTwin compares a tenant's scrape with the embedded twin.
func checkAgainstTwin(out *passOut, p *tenantPlan, s scrape, mon *topk.Monitor) (costBody, error) {
	var tb topkBody
	var cb costBody
	if err := json.Unmarshal(s.topk, &tb); err != nil {
		return cb, fmt.Errorf("%s /topk: %w", p.name, err)
	}
	if err := json.Unmarshal(s.cost, &cb); err != nil {
		return cb, fmt.Errorf("%s /cost: %w", p.name, err)
	}
	want := mon.Cost()
	acked := int64(len(p.bodies)) + 1
	out.check(tb.Step == acked && cb.Steps == acked, "%s: steps %d (/topk) %d (/cost), acked %d", p.name, tb.Step, cb.Steps, acked)
	out.check(cb.Check == "ok" && cb.Health.State == "fresh" && !cb.SilentInvalid,
		"%s: check %q health %q silentInvalid %v", p.name, cb.Check, cb.Health.State, cb.SilentInvalid)
	out.check(slices.Equal(tb.TopK, mon.TopK(nil)), "%s: served top-k %v, embedded twin %v", p.name, tb.TopK, mon.TopK(nil))
	out.check(cb.cost() == want && cb.Epochs == mon.Epochs(), "%s: served cost %+v epochs %d, embedded twin %+v epochs %d",
		p.name, cb.cost(), cb.Epochs, want, mon.Epochs())
	return cb, nil
}

// servedPass is what one end-to-end pass against a daemon measured.
type servedPass struct {
	setup, wall, recovery time.Duration
	daemonCPU, driverCPU  time.Duration
	stats                 driveStats // both clients merged
	updates               int        // updates ingested over the timed loop
	cost                  topk.Cost  // summed over tenants (MaxRoundsPerStep: the larger)
	epochs                int64      // summed over tenants
	unitsAll              int        // updates including the full-vector loads
	rssMB                 float64
}

// servedPass runs one pass against a freshly booted daemon: set-up (plan,
// boot, tenant create, full-vector load), the two closed loops, the
// scrape and twin checks, then SIGKILL and restart. It returns the plans
// so the traced pass can replay the same bodies at the other depths.
func (r *serveRunner) servedPass(out *passOut) (*servedPass, []*tenantPlan, error) {
	ctx := r.env.ctx
	sp := &servedPass{}
	r.passes++
	dataDir := ""
	if r.durable {
		dataDir = fmt.Sprintf("%s/data-%d", r.env.runDir, r.passes)
		defer os.RemoveAll(dataDir)
	}

	t0 := time.Now()
	plans := r.plan()
	d, _, err := startDaemon(r.env, dataDir)
	if err != nil {
		return nil, nil, err
	}
	defer func() { d.kill() }()
	clients := make([]*http.Client, len(plans))
	for i, p := range plans {
		clients[i] = newClient()
		defer clients[i].CloseIdleConnections()
		cfg, err := json.Marshal(p.cfg)
		if err != nil {
			return nil, nil, err
		}
		out.attempted += 2
		_, ok := do(ctx, clients[i], http.MethodPut, d.url()+"/v1/"+p.name, cfg, http.StatusCreated)
		out.check(ok, "%s: create refused", p.name)
		_, ok = do(ctx, clients[i], http.MethodPost, d.url()+"/v1/"+p.name+"/update?client="+p.client+"&seq=1", p.load, http.StatusOK)
		out.check(ok, "%s: full-vector load refused", p.name)
	}
	sp.setup = time.Since(t0)

	stats := make([]driveStats, len(plans))
	var wg sync.WaitGroup
	dcpu0, scpu0 := d.cpu(), selfCPU()
	start := time.Now()
	for i, p := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i] = driveTenant(ctx, clients[i], d.url(), p)
		}()
	}
	wg.Wait()
	sp.wall = time.Since(start)
	sp.daemonCPU, sp.driverCPU = d.cpu()-dcpu0, selfCPU()-scpu0
	sp.rssMB = d.peakRSSMB()
	for i, st := range stats {
		sp.stats.updates = append(sp.stats.updates, st.updates...)
		sp.stats.reads = append(sp.stats.reads, st.reads...)
		sp.stats.failed += st.failed
		sp.stats.bytesIn += st.bytesIn
		sp.stats.bytesOut += st.bytesOut
		sp.updates += len(plans[i].bodies) * serveBatch
		sp.unitsAll += len(plans[i].bodies)*serveBatch + serveNodes
		out.attempted += len(st.updates) + len(st.reads)
	}
	out.check(sp.stats.failed == 0, "%d requests failed or were refused", sp.stats.failed)

	before := make([]scrape, len(plans))
	for i, p := range plans {
		if before[i], err = scrapeTenant(ctx, clients[i], d.url(), p.name); err != nil {
			return nil, nil, err
		}
		mon, err := twin(p, len(p.bodies), nil)
		if err != nil {
			return nil, nil, err
		}
		cb, err := checkAgainstTwin(out, p, before[i], mon)
		mon.Close()
		if err != nil {
			return nil, nil, err
		}
		sp.cost.Messages += cb.Messages
		sp.cost.NodeToServer += cb.NodeToServer
		sp.cost.Unicasts += cb.Unicasts
		sp.cost.Broadcasts += cb.Broadcasts
		sp.cost.Steps += cb.Steps
		sp.cost.MaxRoundsPerStep = max(sp.cost.MaxRoundsPerStep, cb.MaxRoundsPerStep)
		sp.epochs += cb.Epochs
	}

	// Crash and restart. A durable daemon must come back byte-identical;
	// a volatile one comes back empty, which is what volatile means.
	d.kill()
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	restarted, recovery, err := startDaemon(r.env, dataDir)
	if err != nil {
		return nil, nil, fmt.Errorf("restart: %w", err)
	}
	d, sp.recovery = restarted, recovery // the deferred kill now stops this one
	if r.durable {
		for i, p := range plans {
			after, err := scrapeTenant(ctx, clients[i], d.url(), p.name)
			if err != nil {
				return nil, nil, fmt.Errorf("after restart: %w", err)
			}
			out.check(bytes.Equal(after.info, before[i].info) && bytes.Equal(after.topk, before[i].topk) && bytes.Equal(after.cost, before[i].cost),
				"%s: state after restart differs from the pre-kill scrape:\n%s%s%s---\n%s%s%s", p.name,
				before[i].info, before[i].topk, before[i].cost, after.info, after.topk, after.cost)
		}
	}
	return sp, plans, nil
}

func (r *serveRunner) pass(traced bool, out *passOut) error {
	sp, plans, err := r.servedPass(out)
	if err != nil {
		return err
	}
	if traced {
		return r.peel(sp, plans, out)
	}
	out.s.add("setup_s", sp.setup.Seconds())
	out.s.add("updates_per_s", float64(sp.updates)/sp.wall.Seconds())
	out.s.add("latency_p50_us", durQuantileUS(sp.stats.updates, 0.5))
	out.s.add("cpu_us_per_update", float64(sp.daemonCPU.Microseconds())/float64(sp.updates))
	out.s.add("msgs_per_update", float64(sp.cost.Messages)/float64(sp.unitsAll))
	out.s.add("recovery_s", sp.recovery.Seconds())
	return nil
}
