package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"topkmon/internal/chaintest"
	"topkmon/internal/wal"
	"topkmon/topk"
)

// durableServer builds a server journaling into dir. SnapshotEvery is
// pushed out of reach unless a test wants snapshots, so truncation-based
// kill points never trip the lost-data check by design of the test rather
// than of the system.
func durableServer(t *testing.T, dir string, snapEvery int) *Server {
	t.Helper()
	return newTestServer(t, Options{Durability: Durability{
		Dir: dir, Fsync: "never", SnapshotEvery: snapEvery,
	}})
}

// postSeq posts one batch with idempotency parameters and returns the
// decoded response.
func postSeq(t *testing.T, s *Server, tenant string, batch []topk.Update, client string, seq uint64) updateResponse {
	t.Helper()
	path := fmt.Sprintf("/v1/%s/update?client=%s&seq=%d", tenant, client, seq)
	rec := do(t, s, "POST", path, encodeBatch(batch))
	wantStatus(t, rec, 200)
	var resp updateResponse
	decodeJSON(t, rec, &resp)
	return resp
}

// checkJournal fails t unless cfg marshals to exactly journal, the config
// record's bytes in the WAL, and journal reads back as cfg.
func checkJournal(t *testing.T, cfg Config, journal string) {
	t.Helper()
	if got, err := json.Marshal(cfg); err != nil || string(got) != journal {
		t.Fatalf("journaled config = %s, %v\nwant %s", got, err, journal)
	}
	var back Config
	if err := json.Unmarshal([]byte(journal), &back); err != nil || !reflect.DeepEqual(back, cfg) {
		t.Fatalf("journaled config reads back as %+v, %v", back, err)
	}
}

// TestRecoveryEquivalence is the durability layer's headline proof and the
// recovered link of the chain: drive a tenant to completion on a durable
// server, kill the log at every interesting byte offset — clean record
// boundaries, mid-frame-header, mid-CRC, mid-payload, and a flipped bit —
// restart, re-drive the SAME batches with the SAME client sequence numbers
// (the recovered prefix is absorbed as duplicates, the lost suffix
// recommits), and demand the final record, the TopK set and the full JSON
// cost snapshot equal those of an uninterrupted run. The walk this test ran
// before the table runs on both engines and with the fault injector armed,
// so even the injector's coin flips replay exactly; every table row runs
// at one kill point.
func TestRecoveryEquivalence(t *testing.T) {
	kept := chaintest.Kept("serve")
	kept.Steps = 60
	faulty := kept
	faulty.Faults = &topk.FaultPlan{Drop: 0.05, Dup: 0.02, Delay: 0.05,
		Crashes: []topk.Crash{{Node: 3, From: 10, Until: 30}}}
	type recoveryCase struct {
		name string
		r    chaintest.Row
		cfg  Config
		// journal is the config record's JSON as every build of the server
		// has written it: a log written by an older build must replay.
		// Table rows have none; they run at one kill point, mid-CRC, and
		// without the bit flip.
		journal string
	}
	cases := []recoveryCase{
		{"lockstep", kept, rowConfig(kept, false),
			`{"nodes":48,"k":4,"eps":"1/8","engine":"lockstep","monitor":"approx","seed":11}`},
		{"live", kept, rowConfig(kept, true),
			`{"nodes":48,"k":4,"eps":"1/8","engine":"live","shards":3,"monitor":"approx","seed":11}`},
		{"lockstep-faulty", faulty, rowConfig(faulty, false),
			`{"nodes":48,"k":4,"eps":"1/8","engine":"lockstep","monitor":"approx","seed":11,` +
				`"faults":{"drop":0.05,"dup":0.02,"delay":0.05,"crashes":[{"node":3,"from":10,"until":30}]}}`},
	}

	// A plan with all five fault keys, so "retries" is pinned in its place
	// too. It is checked apart from the cases: a longer config record would
	// move the WAL offsets the kill points below are named after.
	retries := *faulty.Faults
	retries.Retries = 3
	cfg := rowConfig(faulty, false)
	cfg.Faults = &retries
	checkJournal(t, cfg,
		`{"nodes":48,"k":4,"eps":"1/8","engine":"lockstep","monitor":"approx","seed":11,`+
			`"faults":{"drop":0.05,"dup":0.02,"delay":0.05,"retries":3,"crashes":[{"node":3,"from":10,"until":30}]}}`)

	for _, r := range chaintest.Rows(chaintest.Recovered) {
		cases = append(cases, recoveryCase{r.Name, r, rowConfig(r, r.Sparse), ""})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.journal != "" {
				checkJournal(t, tc.cfg, tc.journal)
			}
			ref := tc.r.FacadeReference()
			steps := len(ref.Trace)
			want := ref.Obs[steps-1]
			wantCost := costBody(t, want)

			// One full durable run produces the reference log.
			src := t.TempDir()
			a := durableServer(t, src, 1<<20)
			createTenant(t, a, "eq", tc.cfg)
			for i, b := range ref.Trace {
				if resp := postSeq(t, a, "eq", b.Updates(nil), "c", uint64(i+1)); resp.Duplicate {
					t.Fatalf("step %d: fresh seq reported duplicate", i)
				}
			}
			a.Close()
			full, err := os.ReadFile(filepath.Join(src, "eq.wal"))
			if err != nil {
				t.Fatal(err)
			}
			recs, valid := wal.DecodePrefix(full)
			if valid != int64(len(full)) || len(recs) != steps+1 {
				t.Fatalf("reference log: %d records, %d/%d valid bytes", len(recs), valid, len(full))
			}

			// Kill points: the config-record boundary, a handful of batch
			// boundaries, and for each chosen boundary the mid-frame-header
			// (+3), mid-CRC (+6), and mid-payload (+11) offsets behind it.
			boundaries := []int64{recs[0].End, recs[steps/3].End, recs[2*steps/3].End, recs[steps-1].End, int64(len(full))}
			var kills []int64
			for _, b := range boundaries {
				kills = append(kills, b)
				for _, off := range []int64{3, 6, 11} {
					if b+off < int64(len(full)) {
						kills = append(kills, b+off)
					}
				}
			}
			switch {
			case tc.journal == "":
				kills = []int64{recs[2*steps/3].End + 6}
			case testing.Short():
				kills = []int64{recs[steps/3].End, recs[2*steps/3].End + 6, int64(len(full))}
			}

			check := func(t *testing.T, data []byte) {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, "eq.wal"), data, 0o644); err != nil {
					t.Fatal(err)
				}
				b := durableServer(t, dir, 1<<20)

				// The recovered prefix must already be live.
				wantRecovered, _ := wal.DecodePrefix(data)
				var info tenantInfo
				decodeJSON(t, do(t, b, "GET", "/v1/eq", ""), &info)
				if got, want := info.Steps, int64(len(wantRecovered)-1); got != want {
					t.Fatalf("recovered %d steps, want %d", got, want)
				}

				// The client's crash protocol: unsure what landed, resend
				// everything with the original seqs. Recovered steps must
				// dedupe; lost ones must commit — exactly once either way.
				dups := 0
				for i, batch := range ref.Trace {
					if resp := postSeq(t, b, "eq", batch.Updates(nil), "c", uint64(i+1)); resp.Duplicate {
						dups++
					}
				}
				if dups != len(wantRecovered)-1 {
					t.Fatalf("deduped %d retries, want %d", dups, len(wantRecovered)-1)
				}

				v := &served{t: t, s: b, tenant: "eq"}
				chaintest.Same(t, []chaintest.Obs{want}, []chaintest.Obs{v.observe()})
				if !bytes.Equal(v.costs[0], wantCost) {
					t.Fatalf("recovered cost snapshot diverged\nrecovered: %s\ndirect:    %s", v.costs[0], wantCost)
				}
				b.Close()
			}

			for _, kp := range kills {
				t.Run(fmt.Sprintf("kill@%d", kp), func(t *testing.T) {
					check(t, full[:kp])
				})
			}
			// Corrupted tail: a flipped bit mid-log invalidates that record
			// and discards everything after it; recovery still replays the
			// exact prefix and the retries recommit the rest.
			if tc.journal != "" {
				t.Run("bitflip", func(t *testing.T) {
					flip := append([]byte(nil), full...)
					flip[recs[steps/2].End+9] ^= 0x40
					check(t, flip)
				})
			}
		})
	}
}

// TestExactlyOnceRetry pins the duplicate-seq contract on a single
// server, across distinct clients, and across a restart: one seq commits
// exactly one step no matter how many times it is sent.
func TestExactlyOnceRetry(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, 1<<20)
	wantStatus(t, do(t, s, "PUT", "/v1/x", `{"nodes":8,"k":2}`), 201)
	batch := []topk.Update{{Node: 1, Value: 100}, {Node: 2, Value: 50}}

	if resp := postSeq(t, s, "x", batch, "a", 1); resp.Duplicate || resp.Step != 1 {
		t.Fatalf("first send: %+v", resp)
	}
	for i := 0; i < 3; i++ {
		if resp := postSeq(t, s, "x", batch, "a", 1); !resp.Duplicate || resp.Step != 1 {
			t.Fatalf("retry %d: %+v", i, resp)
		}
	}
	// A different client's seq 1 is a different identity: it commits.
	if resp := postSeq(t, s, "x", batch, "b", 1); resp.Duplicate || resp.Step != 2 {
		t.Fatalf("client b: %+v", resp)
	}
	// No seq = no idempotency: every send commits.
	rec := do(t, s, "POST", "/v1/x/update", encodeBatch(batch))
	wantStatus(t, rec, 200)
	var resp updateResponse
	decodeJSON(t, rec, &resp)
	if resp.Duplicate || resp.Step != 3 {
		t.Fatalf("seqless send: %+v", resp)
	}
	// A malformed seq is a client bug, not a silent non-idempotent commit.
	wantStatus(t, do(t, s, "POST", "/v1/x/update?seq=banana", encodeBatch(batch)), 400)

	// The watermark is durable: the retry is still a duplicate after a
	// crash-restart.
	s.Close()
	s2 := durableServer(t, dir, 1<<20)
	if resp := postSeq(t, s2, "x", batch, "a", 1); !resp.Duplicate || resp.Step != 3 {
		t.Fatalf("retry after restart: %+v", resp)
	}
}

// TestResetCompactionDurability: a reset compacts the log to a single
// fresh config record, recovery replays only the new epoch, and — via the
// snapshot written at compaction — a retried pre-reset seq is STILL a
// duplicate after a restart.
func TestResetCompactionDurability(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, 1<<20)
	wantStatus(t, do(t, s, "PUT", "/v1/x", `{"nodes":8,"k":2,"seed":7}`), 201)
	batch := []topk.Update{{Node: 0, Value: 10}}
	for i := 1; i <= 5; i++ {
		postSeq(t, s, "x", batch, "a", uint64(i))
	}
	before, _ := os.ReadFile(filepath.Join(dir, "x.wal"))
	wantStatus(t, do(t, s, "POST", "/v1/x/reset", ""), 200)
	after, _ := os.ReadFile(filepath.Join(dir, "x.wal"))
	if len(after) >= len(before) {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", len(before), len(after))
	}
	recs, _ := wal.DecodePrefix(after)
	if len(recs) != 1 || recs[0].Kind != wal.KindConfig || recs[0].Epoch != 2 {
		t.Fatalf("compacted log = %+v", recs)
	}
	postSeq(t, s, "x", batch, "a", 6)
	s.Close()

	s2 := durableServer(t, dir, 1<<20)
	rec := do(t, s2, "GET", "/v1/x", "")
	wantStatus(t, rec, 200)
	var info tenantInfo
	decodeJSON(t, rec, &info)
	if info.Steps != 1 {
		t.Fatalf("recovered %d steps after reset+1, want 1", info.Steps)
	}
	// Watermarks crossed the compaction: pre-reset seqs stay committed.
	if resp := postSeq(t, s2, "x", batch, "a", 3); !resp.Duplicate {
		t.Fatal("pre-reset seq recommitted after restart")
	}
	if resp := postSeq(t, s2, "x", batch, "a", 7); resp.Duplicate || resp.Step != 2 {
		t.Fatalf("fresh seq after restart: %+v", resp)
	}
}

// TestDeleteDurability: a deleted tenant stays deleted across a restart
// and leaves no files behind.
func TestDeleteDurability(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, 1<<20)
	wantStatus(t, do(t, s, "PUT", "/v1/gone", `{"nodes":8,"k":2}`), 201)
	postSeq(t, s, "gone", []topk.Update{{Node: 0, Value: 1}}, "a", 1)
	wantStatus(t, do(t, s, "DELETE", "/v1/gone", ""), 204)
	if _, err := os.Stat(filepath.Join(dir, "gone.wal")); !os.IsNotExist(err) {
		t.Fatalf("wal file survives delete: %v", err)
	}
	s.Close()
	s2 := durableServer(t, dir, 1<<20)
	wantStatus(t, do(t, s2, "GET", "/v1/gone", ""), 404)
}

// TestLostDataDetection: a log whose valid prefix is shorter than what the
// last snapshot vouched for means acked durable batches disappeared —
// boot must fail loudly instead of silently serving the shorter history.
func TestLostDataDetection(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, 2) // snapshot every 2 steps
	wantStatus(t, do(t, s, "PUT", "/v1/x", `{"nodes":8,"k":2}`), 201)
	for i := 1; i <= 4; i++ {
		postSeq(t, s, "x", []topk.Update{{Node: 0, Value: int64(i)}}, "a", uint64(i))
	}
	s.Close()

	path := filepath.Join(dir, "x.wal")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := wal.DecodePrefix(full)
	if err := os.WriteFile(path, full[:recs[1].End], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = New(Options{Durability: Durability{Dir: dir, Fsync: "never"}})
	if err == nil {
		t.Fatal("boot succeeded on a log that lost snapshotted data")
	}
}

// TestDrainAndRetryAfter pins the overload/shutdown headers: tenant-cap
// 409/429 and body-too-large 413 carry Retry-After, and after Close every
// mutating route refuses with 503 + Retry-After while reads stay up.
func TestDrainAndRetryAfter(t *testing.T) {
	s := newTestServer(t, Options{MaxTenants: 1, MaxBodyBytes: 64})
	wantStatus(t, do(t, s, "PUT", "/v1/one", ""), 201)

	rec := do(t, s, "PUT", "/v1/one", "")
	wantStatus(t, rec, 409)
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("409 without Retry-After")
	}
	rec = do(t, s, "PUT", "/v1/two", "")
	wantStatus(t, rec, 429)
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	big := encodeBatch(chaintest.Kept("serve").Reference().Trace[0].Updates(nil))
	rec = do(t, s, "POST", "/v1/one/update", big)
	wantStatus(t, rec, 413)
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("413 without Retry-After")
	}

	s.Close()
	for _, req := range [][2]string{
		{"POST", "/v1/one/update"}, {"POST", "/v1/one/flush"}, {"POST", "/v1/one/reset"},
		{"PUT", "/v1/three"}, {"DELETE", "/v1/one"},
	} {
		rec := do(t, s, req[0], req[1], "")
		wantStatus(t, rec, 503)
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s %s: 503 without Retry-After", req[0], req[1])
		}
	}
	// Reads survive the drain (the listener is shut down separately).
	wantStatus(t, do(t, s, "GET", "/healthz", ""), 200)
}

// TestVolatileUnchanged: without a data dir the server journals nothing
// and writes nothing — the pre-durability behavior, including working
// idempotency-free ingest.
func TestVolatileUnchanged(t *testing.T) {
	s := newTestServer(t, Options{Defaults: Config{Nodes: 8, K: 2}, Lazy: true})
	wantStatus(t, do(t, s, "POST", "/v1/v/update", `[{"node":0,"value":5}]`), 200)
	// Idempotency still works in-memory on a volatile server.
	b := []topk.Update{{Node: 1, Value: 3}}
	if resp := postSeq(t, s, "v", b, "a", 1); resp.Duplicate {
		t.Fatalf("volatile first send: %+v", resp)
	}
	if resp := postSeq(t, s, "v", b, "a", 1); !resp.Duplicate {
		t.Fatalf("volatile retry: %+v", resp)
	}
}
