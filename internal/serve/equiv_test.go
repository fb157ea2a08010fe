package serve

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"

	"topkmon/internal/chaintest"
	"topkmon/topk"
)

// encodeBatch renders a batch in the update route's wire shape.
func encodeBatch(batch []topk.Update) string {
	b := []byte{'['}
	for i, u := range batch {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"node":`...), int64(u.Node), 10)
		b = append(strconv.AppendInt(append(b, `,"value":`...), u.Value, 10), '}')
	}
	return string(append(b, ']'))
}

// rowConfig is the tenant config that runs r on lockstep, or on the live
// engine with 3 shards. The table's sparse rows take the live engine, so
// AdvanceDirty crosses the served links on both engines.
func rowConfig(r chaintest.Row, live bool) Config {
	c := Config{Nodes: r.N, K: r.K, Eps: r.Eps.String(), Engine: "lockstep",
		Monitor: r.Algo.String(), Seed: r.Seed, Faults: r.Faults}
	if live {
		c.Engine, c.Shards = "live", 3
	}
	return c
}

// createTenant creates tenant on s with cfg over the tenant-create route.
func createTenant(t *testing.T, s *Server, tenant string, cfg Config) {
	t.Helper()
	body, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, do(t, s, "PUT", "/v1/"+tenant, string(body)), 201)
}

// served is a tenant stepped over the HTTP handlers: each batch is one POST
// to the update route, after which /topk and /cost are read back. It keeps
// every /cost body it read.
type served struct {
	t      *testing.T
	s      *Server
	tenant string
	batch  []topk.Update
	costs  [][]byte
}

func (v *served) Step(b chaintest.Batch) chaintest.Obs {
	v.batch = b.Updates(v.batch)
	wantStatus(v.t, do(v.t, v.s, "POST", "/v1/"+v.tenant+"/update", encodeBatch(v.batch)), 200)
	return v.observe()
}

// observe reads the tenant's output and introspection snapshot.
func (v *served) observe() chaintest.Obs {
	v.t.Helper()
	var tr topkResponse
	decodeJSON(v.t, do(v.t, v.s, "GET", "/v1/"+v.tenant+"/topk", ""), &tr)
	rec := do(v.t, v.s, "GET", "/v1/"+v.tenant+"/cost", "")
	var cr costResponse
	decodeJSON(v.t, rec, &cr)
	if tr.Step != cr.Steps {
		v.t.Fatalf("/topk is at step %d, /cost at step %d", tr.Step, cr.Steps)
	}
	v.costs = append(v.costs, bytes.TrimSpace(rec.Body.Bytes()))
	return chaintest.Obs{Out: tr.TopK, Cost: cr.Cost, Epochs: cr.Epochs, Algo: cr.Algorithm,
		Check: cr.Check, Health: chaintest.Health(cr.Health)}
}

// costBody is the /cost body a tenant must serve after a step that
// recorded o.
func costBody(t *testing.T, o chaintest.Obs) []byte {
	t.Helper()
	body, err := json.Marshal(costResponse{Algorithm: o.Algo, Epochs: o.Epochs, Cost: o.Cost,
		Check: o.Check, Health: healthJSON(o.Health), SilentInvalid: o.Check != "ok" && o.Health.State == "fresh"})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestServeEquivalence is the frontend's core guarantee and the served link
// of the chain: a trace ingested over the HTTP handlers records, step for
// step, what the direct lockstep run records (for a fault-armed row, the
// facade on lockstep) — outputs, the whole Cost bill, epochs, algorithm,
// Check and Health — and every /cost body is byte for byte the one that
// record encodes to. No served step may be silent-invalid (Check failing
// while Health reads fresh), on any row. The server path is pure
// transport; it inherits the facade's equivalence guarantee instead of
// weakening it. The walk this test ran before the table runs on both
// engines and with the fault layer armed; every table row runs too.
func TestServeEquivalence(t *testing.T) {
	run := func(t *testing.T, r chaintest.Row, cfg Config) {
		ref := r.FacadeReference()
		s := newTestServer(t, Options{})
		createTenant(t, s, "eq", cfg)
		v := &served{t: t, s: s, tenant: "eq"}
		got := chaintest.Run(ref.Trace, v.Step)
		chaintest.Same(t, ref.Obs, got)
		for i, o := range ref.Obs {
			if want := costBody(t, o); !bytes.Equal(v.costs[i], want) {
				t.Fatalf("step %d: cost snapshot diverged\nhttp:   %s\ndirect: %s", i, v.costs[i], want)
			}
		}
		// No silent wrong answer over the wire, and an armed plan dropped
		// messages.
		if i := chaintest.SilentWrong(got); i >= 0 {
			t.Fatalf("step %d: served /cost is silent-invalid (check %q)", i, got[i].Check)
		}
		if last := got[len(got)-1]; r.Faults != nil && last.Cost.DroppedMsgs == 0 {
			t.Fatal("faulty run: the fault plan dropped no message")
		}
	}
	kept := chaintest.Kept("serve")
	faulty := kept
	faulty.Faults = &topk.FaultPlan{Drop: 0.05, Dup: 0.02, Delay: 0.05,
		Crashes: []topk.Crash{{Node: 3, From: 40, Until: 90}}}
	t.Run("lockstep", func(t *testing.T) { run(t, kept, rowConfig(kept, false)) })
	t.Run("live", func(t *testing.T) { run(t, kept, rowConfig(kept, true)) })
	t.Run("lockstep-faulty", func(t *testing.T) { run(t, faulty, rowConfig(faulty, false)) })
	for _, r := range chaintest.Rows(chaintest.Served) {
		t.Run(r.Name, func(t *testing.T) { run(t, r, rowConfig(r, r.Sparse)) })
	}
}

// TestServeResetEquivalence: a served tenant Reset over HTTP replays the
// trace byte-identically to its first run — the facade's Reset contract
// survives the transport.
func TestServeResetEquivalence(t *testing.T) {
	r := chaintest.Kept("sse")
	trace := r.Reference().Trace
	s := newTestServer(t, Options{})
	createTenant(t, s, "r", rowConfig(r, false))
	first := chaintest.Run(trace, (&served{t: t, s: s, tenant: "r"}).Step)
	// Reset with the tenant's construction seed (the default body).
	wantStatus(t, do(t, s, "POST", "/v1/r/reset", ""), 200)
	chaintest.Same(t, first, chaintest.Run(trace, (&served{t: t, s: s, tenant: "r"}).Step))
}
