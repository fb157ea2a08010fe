//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"topkmon/internal/serve"
	"topkmon/internal/wal"
	"topkmon/topk"
)

// The served path is measured without editing the program by peeling: the
// request bodies of the end-to-end pass are replayed at four depths, each
// one layer shallower than the last, and a stage's cost is the difference
// between neighbouring depths.
//
//	1  child-process round trip            (the end-to-end pass itself)
//	2  in-process net/http over loopback   (serve.Server behind httptest)
//	3  Server.ServeHTTP into a recorder    (no sockets)
//	4  serve.DecodeBatch + Tenant.CommitBatch
//
// and below that the embedded twin's UpdateBatch and a benchmark-owned
// wal.Store fed the same records. Depths 2-4 replay a quarter of the ops.

// truncated returns the plan cut to its first n requests.
func (p *tenantPlan) truncated(n int) *tenantPlan {
	q := *p
	q.bodies, q.queries = p.bodies[:n], p.queries[:n]
	return &q
}

// peelDir names a data directory for one depth of a durable peel; a
// volatile workload keeps every depth volatile.
func (r *serveRunner) peelDir(depth string) string {
	if !r.durable {
		return ""
	}
	return filepath.Join(r.env.runDir, fmt.Sprintf("peel-%d-%s", r.passes, depth))
}

// loopbackDepth is depth 2: the end-to-end client code against the same
// server in-process, so what is left of the round trip is net/http and
// loopback TCP without a process boundary.
func (r *serveRunner) loopbackDepth(plans []*tenantPlan, out *passOut) ([]time.Duration, error) {
	dir := r.peelDir("loopback")
	defer os.RemoveAll(dir)
	d, _, err := startInProcess(dir)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	stats := make([]driveStats, len(plans))
	var wg sync.WaitGroup
	for i, p := range plans {
		c := newClient()
		defer c.CloseIdleConnections()
		cfg, _ := json.Marshal(p.cfg)
		_, ok := do(r.env.ctx, c, http.MethodPut, d.url()+"/v1/"+p.name, cfg, http.StatusCreated)
		out.check(ok, "loopback %s: create refused", p.name)
		_, ok = do(r.env.ctx, c, http.MethodPost, d.url()+"/v1/"+p.name+"/update?client="+p.client+"&seq=1", p.load, http.StatusOK)
		out.check(ok, "loopback %s: full-vector load refused", p.name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i] = driveTenant(r.env.ctx, c, d.url(), p)
		}()
	}
	wg.Wait()
	var lat []time.Duration
	for _, st := range stats {
		out.check(st.failed == 0, "loopback: %d requests failed", st.failed)
		lat = append(lat, st.updates...)
	}
	return lat, nil
}

// serveRecorded sends one request through Server.ServeHTTP into a
// recorder and returns the status.
func serveRecorded(srv *serve.Server, method, target string, body []byte) int {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec.Code
}

// handlerDepth is depth 3: routing, query parsing, decode, commit and
// response encoding, with no socket. With a tracer every update is one
// serve.handler span; it returns the loop's wall time.
func (r *serveRunner) handlerDepth(plans []*tenantPlan, tr *tracer, out *passOut) (time.Duration, error) {
	dir := r.peelDir("handler")
	defer os.RemoveAll(dir)
	srv, err := serve.New(serveOptions(dir))
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	var wall time.Duration
	for _, p := range plans {
		cfg, _ := json.Marshal(p.cfg)
		target := "/v1/" + p.name
		out.check(serveRecorded(srv, http.MethodPut, target, cfg) == http.StatusCreated, "handler %s: create refused", p.name)
		out.check(serveRecorded(srv, http.MethodPost, target+"/update?client="+p.client+"&seq=1", p.load) == http.StatusOK,
			"handler %s: full-vector load refused", p.name)
		failed := 0
		for j, body := range p.bodies {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, target+"/update"+p.queries[j], bytes.NewReader(body))
			t := time.Now()
			if tr != nil {
				tr.op = int32(j)
				s := tr.begin(spHandler)
				srv.ServeHTTP(rec, req)
				tr.end(s)
			} else {
				srv.ServeHTTP(rec, req)
			}
			wall += time.Since(t)
			if rec.Code != http.StatusOK {
				failed++
			}
		}
		out.check(failed == 0, "handler %s: %d requests refused", p.name, failed)
	}
	return wall, nil
}

// commitDepth is depth 4: the two calls the update handler makes, timed
// apart.
func (r *serveRunner) commitDepth(plans []*tenantPlan, tr *tracer, out *passOut) error {
	dir := r.peelDir("commit")
	defer os.RemoveAll(dir)
	srv, err := serve.New(serveOptions(dir))
	if err != nil {
		return err
	}
	defer srv.Close()
	buf := make([]topk.Update, 0, serveNodes)
	for _, p := range plans {
		t, err := srv.Pool().Create(p.name, p.cfg)
		if err != nil {
			return err
		}
		if _, _, err := t.CommitBatch(p.trace.initial, p.client, 1); err != nil {
			return err
		}
		for j, body := range p.bodies {
			tr.op = int32(j)
			s := tr.begin(spDecodeBatch)
			batch, err := serve.DecodeBatch(bytes.NewReader(body), buf, 65536)
			tr.end(s)
			if err != nil {
				return err
			}
			s = tr.begin(spCommitBatch)
			_, dup, err := t.CommitBatch(batch, p.client, uint64(j+2))
			tr.end(s)
			if err != nil {
				return err
			}
			out.check(!dup, "commit %s: seq %d taken for a duplicate", p.name, j+2)
		}
	}
	return nil
}

// walTimes is what the benchmark-owned wal.Store measured.
type walTimes struct {
	appendFrameNS float64 // per record
	appendUS      float64 // p50, policy of the workload, fsync included
	syncUS        float64 // p50 of an explicit fsync after a buffered append
	bytesPerRec   float64
	logMB         float64
	decodeUS      float64 // per record
	openMS        float64
	recoverUS     float64 // serve.New replaying the log, per record
}

// walDepth feeds one tenant's records — the config record and the batches
// serve would journal for the same requests — to a wal.Store under the
// workload's fsync policy, then reads the log back the way recovery does.
func (r *serveRunner) walDepth(p *tenantPlan, out *passOut) (walTimes, error) {
	var wt walTimes
	cfg, err := json.Marshal(p.cfg)
	if err != nil {
		return wt, err
	}
	recs := []wal.Record{
		{Kind: wal.KindConfig, Epoch: 1, Seed: p.cfg.Seed, Config: cfg},
		{Kind: wal.KindBatch, Epoch: 1, Step: 1, Client: p.client, Seq: 1, Batch: p.trace.initial},
	}
	for j := range p.bodies {
		recs = append(recs, wal.Record{
			Kind: wal.KindBatch, Epoch: 1, Step: uint64(j + 2), Client: p.client, Seq: uint64(j + 2), Batch: p.trace.batches[j],
		})
	}
	nrecs := float64(len(recs))

	const frameRounds = 16
	var frame []byte
	t := time.Now()
	for range frameRounds {
		for i := range recs {
			frame = wal.AppendFrame(frame[:0], &recs[i])
		}
	}
	wt.appendFrameNS = float64(time.Since(t).Nanoseconds()) / (frameRounds * nrecs)

	policy, fsync := wal.SyncNever, "never"
	if r.durable {
		policy, fsync = wal.SyncAlways, "always"
	}
	dir := filepath.Join(r.env.runDir, fmt.Sprintf("wal-%d", r.passes))
	defer os.RemoveAll(dir)

	// journal writes the records to a fresh store under dir/sub, timing each
	// Append and, with syncEach, an explicit fsync after it.
	journal := func(sub string, policy wal.Policy, syncEach bool) (size int64, appends, syncs []time.Duration, err error) {
		store, err := wal.Open(wal.Options{Dir: filepath.Join(dir, sub), Policy: policy})
		if err != nil {
			return 0, nil, nil, err
		}
		defer store.Close()
		log, err := store.Create(p.name)
		if err != nil {
			return 0, nil, nil, err
		}
		for i := range recs {
			t := time.Now()
			if _, err := log.Append(&recs[i]); err != nil {
				return 0, nil, nil, err
			}
			appends = append(appends, time.Since(t))
			if syncEach {
				t = time.Now()
				if err := log.Sync(); err != nil {
					return 0, nil, nil, err
				}
				syncs = append(syncs, time.Since(t))
			}
		}
		return log.Size(), appends, syncs, store.Close()
	}
	size, appends, _, err := journal("policy", policy, false)
	if err != nil {
		return wt, err
	}
	wt.appendUS = durQuantileUS(appends, 0.5)
	wt.bytesPerRec = float64(size) / nrecs
	wt.logMB = float64(size) / (1 << 20)
	_, _, syncs, err := journal("sync", wal.SyncNever, true)
	if err != nil {
		return wt, err
	}
	wt.syncUS = durQuantileUS(syncs, 0.5)

	// Read it back as recovery does: decode, open, replay.
	data, err := os.ReadFile(filepath.Join(dir, "policy", p.name+".wal"))
	if err != nil {
		return wt, err
	}
	t = time.Now()
	decoded, _ := wal.DecodePrefix(data)
	wt.decodeUS = float64(time.Since(t).Nanoseconds()) / 1e3 / nrecs
	out.check(len(decoded) == len(recs), "wal: decoded %d of %d records", len(decoded), len(recs))

	store, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "policy"), Policy: policy})
	if err != nil {
		return wt, err
	}
	t = time.Now()
	_, reopened, _, err := store.OpenExisting(p.name)
	wt.openMS = float64(time.Since(t).Nanoseconds()) / 1e6
	store.Close()
	if err != nil {
		return wt, err
	}
	out.check(len(reopened) == len(recs), "wal: reopened %d of %d records", len(reopened), len(recs))

	t = time.Now()
	srv, err := serve.New(serve.Options{Durability: serve.Durability{Dir: filepath.Join(dir, "policy"), Fsync: fsync}})
	wt.recoverUS = float64(time.Since(t).Nanoseconds()) / 1e3 / nrecs
	if err != nil {
		return wt, fmt.Errorf("recover from the benchmark's own log: %w", err)
	}
	defer srv.Close()
	tenant, err := srv.Pool().Get(p.name)
	if err != nil {
		return wt, err
	}
	out.check(tenant.Mon.Steps() == int64(len(recs)-1), "recovered %d steps from %d batch records", tenant.Mon.Steps(), len(recs)-1)
	return wt, nil
}

// peel is the traced pass of a served workload: sp is depth 1, already
// measured; the other depths replay a quarter of its requests.
func (r *serveRunner) peel(sp *servedPass, full []*tenantPlan, out *passOut) error {
	n := max(1, r.reqs/4)
	plans := make([]*tenantPlan, len(full))
	for i, p := range full {
		plans[i] = p.truncated(n)
	}

	loop, err := r.loopbackDepth(plans, out)
	if err != nil {
		return fmt.Errorf("loopback depth: %w", err)
	}
	tr := newTracer(4 * n * len(plans))
	tracedWall, err := r.handlerDepth(plans, tr, out)
	if err != nil {
		return fmt.Errorf("handler depth: %w", err)
	}
	plainWall, err := r.handlerDepth(plans, nil, out)
	if err != nil {
		return fmt.Errorf("handler depth: %w", err)
	}
	if err := r.commitDepth(plans, tr, out); err != nil {
		return fmt.Errorf("commit depth: %w", err)
	}
	for _, p := range plans {
		mon, err := twin(p, n, tr)
		if err != nil {
			return err
		}
		mon.Close()
	}
	wt, err := r.walDepth(plans[0], out)
	if err != nil {
		return fmt.Errorf("wal depth: %w", err)
	}
	if _, err := selfTimes(tr.spans); err != nil {
		return err
	}
	out.spans = tr.spans

	p50 := func(name spanName) float64 { return durQuantileUS(durations(tr.spans, name), 0.5) }
	e2e, inproc := durQuantileUS(sp.stats.updates, 0.5), durQuantileUS(loop, 0.5)
	decode, commit, handler, update := p50(spDecodeBatch), p50(spCommitBatch), p50(spHandler), p50(spUpdateBatch)
	journal := 0.0
	if r.durable {
		journal = wt.appendUS
	}
	reqs := float64(len(sp.stats.updates))

	out.s.add("topk.update_batch.p50_us", update)
	out.s.add("protocol.epochs_per_kstep", 1000*float64(sp.epochs)/float64(sp.cost.Steps))
	addMsgSplit(out.s, sp.cost, sp.unitsAll)
	out.s.add("serve.decode_batch.us_per_req", decode)
	out.s.add("serve.commit_batch.us_per_req", commit)
	out.s.add("serve.commit_batch.self_us_per_req", commit-update-journal)
	out.s.add("serve.handler.us_per_req", handler)
	out.s.add("serve.handler.self_us_per_req", handler-decode-commit)
	out.s.add("serve.loopback.us_per_req", inproc-handler)
	out.s.add("serve.process_boundary.us_per_req", e2e-inproc)
	out.s.add("serve.bytes_in_per_req", float64(sp.stats.bytesIn)/reqs)
	out.s.add("serve.bytes_out_per_req", float64(sp.stats.bytesOut)/reqs)
	out.s.add("serve.read.p50_us", durQuantileUS(sp.stats.reads, 0.5))
	out.s.add("serve.latency_p99_us", durQuantileUS(sp.stats.updates, 0.99))
	out.s.add("serve.latency_max_us", durQuantileUS(sp.stats.updates, 1))
	out.s.add("serve.rss_mb", sp.rssMB)
	out.s.add("serve.recover.us_per_rec", wt.recoverUS)
	out.s.add("wal.append_frame.ns_per_rec", wt.appendFrameNS)
	out.s.add("wal.append.us_per_rec", wt.appendUS)
	out.s.add("wal.sync.us_per_call", wt.syncUS)
	out.s.add("wal.bytes_per_rec", wt.bytesPerRec)
	out.s.add("wal.log_mb", wt.logMB)
	out.s.add("wal.decode_prefix.us_per_rec", wt.decodeUS)
	out.s.add("wal.open_existing.ms", wt.openMS)
	out.s.add("bench.trace_overhead_ratio", tracedWall.Seconds()/plainWall.Seconds())
	out.s.add("bench.generator_cpu_share", sp.driverCPU.Seconds()/(sp.driverCPU+sp.daemonCPU).Seconds())
	return nil
}
