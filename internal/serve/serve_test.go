package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"topkmon/topk"
)

// do runs one request through the handler stack without a socket.
func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func wantStatus(t *testing.T, rec *httptest.ResponseRecorder, want int) {
	t.Helper()
	if rec.Code != want {
		t.Fatalf("status = %d, want %d (body: %s)", rec.Code, want, rec.Body.String())
	}
}

// decodeJSON decodes rec's body into v, failing t on a malformed body.
func decodeJSON(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("malformed body %q: %v", rec.Body.String(), err)
	}
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestTenantLifecycle walks create → info → ingest → reset → delete through
// the handlers, without a socket.
func TestTenantLifecycle(t *testing.T) {
	s := newTestServer(t, Options{Defaults: Config{Nodes: 16, K: 2}})

	// Unknown tenant reads are 404; lazy creation is off.
	wantStatus(t, do(t, s, "GET", "/v1/web/topk", ""), http.StatusNotFound)
	wantStatus(t, do(t, s, "POST", "/v1/web/update", "[]"), http.StatusNotFound)

	// Create with a partial config: zero fields inherit the defaults.
	rec := do(t, s, "PUT", "/v1/web", `{"k":3,"seed":9}`)
	wantStatus(t, rec, http.StatusCreated)
	var info tenantInfo
	decodeJSON(t, rec, &info)
	if info.Config.Nodes != 16 || info.Config.K != 3 || info.Config.Seed != 9 ||
		info.Config.Eps != "1/8" || info.Config.Engine != "lockstep" || info.Config.Monitor != "approx" {
		t.Fatalf("merged config = %+v", info.Config)
	}

	// Duplicate create conflicts; invalid names and configs are rejected.
	wantStatus(t, do(t, s, "PUT", "/v1/web", ""), http.StatusConflict)
	wantStatus(t, do(t, s, "PUT", "/v1/bad%20name", ""), http.StatusBadRequest)
	wantStatus(t, do(t, s, "PUT", "/v1/tenants", ""), http.StatusBadRequest)
	wantStatus(t, do(t, s, "PUT", "/v1/neg", `{"k":-1}`), http.StatusBadRequest)
	wantStatus(t, do(t, s, "PUT", "/v1/neg", `{"engine":"vax"}`), http.StatusBadRequest)
	wantStatus(t, do(t, s, "PUT", "/v1/neg", `{"unknown":1}`), http.StatusBadRequest)
	// So is a config its algorithm cannot run (k = n, or ε = 0 under
	// Approx and HalfEps), on either engine, and it leaves no tenant.
	for _, body := range []string{
		`{"nodes":4,"k":4}`,
		`{"nodes":4,"k":4,"engine":"live"}`,
		`{"eps":"0/1"}`,
		`{"eps":"0/1","engine":"live","monitor":"half-eps"}`,
	} {
		wantStatus(t, do(t, s, "PUT", "/v1/neg", body), http.StatusBadRequest)
	}
	wantStatus(t, do(t, s, "GET", "/v1/neg", ""), http.StatusNotFound)
	wantStatus(t, do(t, s, "PUT", "/v1/whole", `{"nodes":4,"k":4,"monitor":"naive"}`), http.StatusCreated)

	// Ingest three steps: one batch, one staged pair via update+flush shape
	// (the update route always commits the batch as one step), one
	// heartbeat flush.
	wantStatus(t, do(t, s, "POST", "/v1/web/update", `[{"node":0,"value":100},{"node":1,"value":50}]`), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/v1/web/update", `[]`), http.StatusOK)
	rec = do(t, s, "POST", "/v1/web/flush", "")
	wantStatus(t, rec, http.StatusOK)
	var ur updateResponse
	decodeJSON(t, rec, &ur)
	if ur.Step != 3 {
		t.Fatalf("steps after 3 commits = %d", ur.Step)
	}

	// Reads.
	rec = do(t, s, "GET", "/v1/web/topk", "")
	wantStatus(t, rec, http.StatusOK)
	var tr topkResponse
	decodeJSON(t, rec, &tr)
	if tr.K != 3 || len(tr.TopK) != 3 || tr.Step != 3 {
		t.Fatalf("topk response = %+v", tr)
	}
	rec = do(t, s, "GET", "/v1/web/cost", "")
	wantStatus(t, rec, http.StatusOK)
	var cr costResponse
	decodeJSON(t, rec, &cr)
	if cr.Check != "ok" || cr.SilentInvalid || cr.Steps != 3 || cr.Messages == 0 {
		t.Fatalf("cost response = %+v", cr)
	}
	rec = do(t, s, "GET", "/v1/web/health", "")
	wantStatus(t, rec, http.StatusOK)
	var hr healthResponse
	decodeJSON(t, rec, &hr)
	if hr.Check != "ok" || hr.Health.State != "fresh" {
		t.Fatalf("health response = %+v", hr)
	}

	// Reset rewinds the step count.
	wantStatus(t, do(t, s, "POST", "/v1/web/reset", `{"seed":5}`), http.StatusOK)
	rec = do(t, s, "GET", "/v1/web", "")
	wantStatus(t, rec, http.StatusOK)
	decodeJSON(t, rec, &info)
	if info.Steps != 0 {
		t.Fatalf("steps after reset = %d", info.Steps)
	}

	// Delete; further reads 404, delete is not idempotent (404 again).
	wantStatus(t, do(t, s, "DELETE", "/v1/web", ""), http.StatusNoContent)
	wantStatus(t, do(t, s, "GET", "/v1/web/topk", ""), http.StatusNotFound)
	wantStatus(t, do(t, s, "DELETE", "/v1/web", ""), http.StatusNotFound)
}

// TestCostKeys pins the /cost body's key set: every topk.Cost counter
// under its wire name, plus algorithm, epochs, check, health and
// silentInvalid, and nothing else.
func TestCostKeys(t *testing.T) {
	s := newTestServer(t, Options{Defaults: Config{Nodes: 8, K: 2}})
	wantStatus(t, do(t, s, "PUT", "/v1/web", ""), http.StatusCreated)
	wantStatus(t, do(t, s, "POST", "/v1/web/update", `[{"node":0,"value":100}]`), http.StatusOK)
	rec := do(t, s, "GET", "/v1/web/cost", "")
	wantStatus(t, rec, http.StatusOK)
	var body map[string]json.RawMessage
	decodeJSON(t, rec, &body)
	want := strings.Fields(`algorithm steps epochs messages nodeToServer unicasts broadcasts
		maxRoundsPerStep maxMessageBits indexFallbacks droppedMsgs dupMsgs retries resyncs
		staleSteps check health silentInvalid`)
	for _, k := range want {
		if _, ok := body[k]; !ok {
			t.Errorf("/cost lacks key %q", k)
		}
		delete(body, k)
	}
	for k := range body {
		t.Errorf("/cost has unexpected key %q", k)
	}
}

// TestLazyCreationAndLimits pins the lazy-ingest path and the tenant cap.
func TestLazyCreationAndLimits(t *testing.T) {
	s := newTestServer(t, Options{Defaults: Config{Nodes: 8, K: 2}, Lazy: true, MaxTenants: 2})

	wantStatus(t, do(t, s, "POST", "/v1/a/update", `[{"node":0,"value":1}]`), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/v1/b/flush", ""), http.StatusOK)
	// Third tenant exceeds the cap, lazily or explicitly.
	wantStatus(t, do(t, s, "POST", "/v1/c/update", `[]`), http.StatusTooManyRequests)
	wantStatus(t, do(t, s, "PUT", "/v1/c", ""), http.StatusTooManyRequests)
	// Lazily-created tenants carry the server defaults.
	rec := do(t, s, "GET", "/v1/a", "")
	wantStatus(t, rec, http.StatusOK)
	var info tenantInfo
	decodeJSON(t, rec, &info)
	if info.Config.Nodes != 8 || info.Config.K != 2 {
		t.Fatalf("lazy tenant config = %+v", info.Config)
	}
	// Deleting frees a slot.
	wantStatus(t, do(t, s, "DELETE", "/v1/b", ""), http.StatusNoContent)
	wantStatus(t, do(t, s, "POST", "/v1/c/flush", ""), http.StatusOK)

	rec = do(t, s, "GET", "/v1/tenants", "")
	wantStatus(t, rec, http.StatusOK)
	var list []tenantInfo
	decodeJSON(t, rec, &list)
	if len(list) != 2 || list[0].Name != "a" || list[1].Name != "c" {
		t.Fatalf("tenant list = %+v", list)
	}

	// Defaults the algorithm cannot run fail the server's construction.
	for _, d := range []Config{
		{Nodes: 8, K: 2, Eps: "0/1", Engine: "live"},
		{Nodes: 4, K: 4},
		{Monitor: "bogus"},
	} {
		if bad, err := New(Options{Defaults: d, Lazy: true}); err == nil {
			bad.Close()
			t.Fatalf("New accepted defaults %+v", d)
		}
	}
}

// TestUpdateRejections pins the ingest route's error envelope: bad
// requests never commit a step or touch monitor state.
func TestUpdateRejections(t *testing.T) {
	s := newTestServer(t, Options{Defaults: Config{Nodes: 4, K: 1}, Lazy: true, MaxBatch: 8})

	cases := []struct {
		name, body string
		status     int
	}{
		{"malformed", `[{"node":0,`, http.StatusBadRequest},
		{"not-array", `{"node":0,"value":1}`, http.StatusBadRequest},
		{"unknown-field", `[{"node":0,"value":1,"x":2}]`, http.StatusBadRequest},
		{"missing-value", `[{"node":0}]`, http.StatusBadRequest},
		{"node-overflow", `[{"node":99999999999999999999,"value":1}]`, http.StatusBadRequest},
		{"value-overflow", `[{"node":0,"value":99999999999999999999}]`, http.StatusBadRequest},
		{"float-node", `[{"node":1.5,"value":1}]`, http.StatusBadRequest},
		{"trailing", `[{"node":0,"value":1}] x`, http.StatusBadRequest},
		{"node-out-of-range", `[{"node":64,"value":1}]`, http.StatusBadRequest},
		{"value-negative", `[{"node":0,"value":-1}]`, http.StatusBadRequest},
		{"too-many", `[{"node":0,"value":1},{"node":0,"value":1},{"node":0,"value":1},{"node":0,"value":1},{"node":0,"value":1},{"node":0,"value":1},{"node":0,"value":1},{"node":0,"value":1},{"node":0,"value":1}]`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		rec := do(t, s, "POST", "/v1/x/update", tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s: status = %d, want %d (body: %s)", tc.name, rec.Code, tc.status, rec.Body.String())
		}
	}
	// None of the rejected requests committed anything (the tenant was
	// still lazily created by the first ingest attempt — with zero steps).
	rec := do(t, s, "GET", "/v1/x", "")
	wantStatus(t, rec, http.StatusOK)
	var info tenantInfo
	decodeJSON(t, rec, &info)
	if info.Steps != 0 {
		t.Fatalf("rejected updates committed %d steps", info.Steps)
	}
}

// TestDecodeBatchReuse pins the decoder's buffer contract: appending into
// dst[:0] and reusing capacity.
func TestDecodeBatchReuse(t *testing.T) {
	buf := make([]topk.Update, 0, 4)
	got, err := DecodeBatch(strings.NewReader(`[{"node":1,"value":2},{"node":3,"value":4}]`), buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (topk.Update{Node: 1, Value: 2}) || got[1] != (topk.Update{Node: 3, Value: 4}) {
		t.Fatalf("batch = %+v", got)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("decoder did not reuse dst capacity")
	}
	// Duplicate nodes within a batch are legal (last wins at commit, a
	// Monitor.UpdateBatch contract) and empty batches are heartbeats.
	if _, err := DecodeBatch(strings.NewReader(`[{"node":0,"value":1},{"node":0,"value":2}]`), nil, 8); err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeBatch(strings.NewReader(`[]`), nil, 8); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %v", got, err)
	}
}

// raceEnabled is set by the -race build, under which sync.Pool drops
// buffers at random and so allocates.
var raceEnabled bool

// decodeBody is the wire form of a 16-update batch as the repository
// benchmark sends it: compact {"node":…,"value":…} objects.
func decodeBody() []byte {
	return []byte(encodeBatch(benchBatch(rand.New(rand.NewSource(1)), benchConfig.Nodes)))
}

// TestDecodeBatchAllocs pins the decoder's steady state: with the body
// buffer pooled and dst reused, a batch decodes without allocating.
func TestDecodeBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	body := decodeBody()
	rd := bytes.NewReader(body)
	dst := make([]topk.Update, 0, 16)
	decode := func() {
		rd.Reset(body)
		var err error
		if dst, err = DecodeBatch(rd, dst, 16); err != nil || len(dst) != 16 {
			t.Fatalf("DecodeBatch = %v, %v", dst, err)
		}
	}
	decode() // warm the body pool
	if avg := testing.AllocsPerRun(1000, decode); avg != 0 {
		t.Fatalf("DecodeBatch: %.2f allocs per batch, want 0", avg)
	}
}

// BenchmarkDecodeBatch measures one 16-update batch through DecodeBatch.
func BenchmarkDecodeBatch(b *testing.B) {
	body := decodeBody()
	rd := bytes.NewReader(body)
	dst := make([]topk.Update, 0, 16)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		rd.Reset(body)
		var err error
		if dst, err = DecodeBatch(rd, dst, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"a", "Tenant-1", "x_y", strings.Repeat("a", 64)} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "tenants", "a b", "a/b", "ü", strings.Repeat("a", 65)} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true", bad)
		}
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Options{Lazy: true})
	wantStatus(t, do(t, s, "GET", "/healthz", ""), http.StatusOK)
}
