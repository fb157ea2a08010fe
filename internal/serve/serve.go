// Package serve is the multi-tenant HTTP ingest frontend over the public
// topk facade: one listener multiplexing many independent monitors
// (tenant id → topk.Monitor), the operational form of the ROADMAP's
// "queryable distributed data structure for top-k".
//
// The package deliberately imports nothing from the rest of internal/
// except internal/wal (the durability layer, which itself imports only the
// public topk package) — so the server path inherits every facade
// guarantee (byte-identical outputs to direct engine use, zero-alloc push
// path, no-silent-wrong-answers under faults) instead of re-deriving them;
// topk/boundary_test.go pins this, and TestServeEquivalence proves the
// HTTP transport adds nothing on top. cmd/topkd is the thin binary around
// this package (the one sanctioned internal import of cmd/).
//
// With Options.Durability.Dir set, every accepted batch is journaled to a
// per-tenant write-ahead log BEFORE its step commits, all tenants are
// replayed byte-identically on boot, and the ingest routes accept
// ?client=…&seq=… idempotency parameters: a retried POST with an
// already-committed seq is acknowledged with {"duplicate":true} and
// commits nothing — exactly-once ingest under client retries
// (TestRecoveryEquivalence, durable_test.go).
//
// Routes (all tenant state lives under /v1/{tenant}):
//
//	PUT    /v1/{tenant}          create, JSON Config body (zero fields = server defaults)
//	DELETE /v1/{tenant}          close and remove
//	GET    /v1/{tenant}          config + step count
//	POST   /v1/{tenant}/update   JSON [{"node":i,"value":v},...] = ONE committed step
//	POST   /v1/{tenant}/flush    heartbeat: commit an empty step
//	POST   /v1/{tenant}/reset    {"seed":n} rewind via Monitor.Reset
//	GET    /v1/{tenant}/topk     current output
//	GET    /v1/{tenant}/cost     full Cost counters + check + health introspection
//	GET    /v1/{tenant}/health   health + referee verdict
//	GET    /v1/{tenant}/events   SSE bridge over Monitor.Subscribe
//	GET    /v1/tenants           list tenants
//	GET    /healthz              server liveness
//
// Unknown tenants are created lazily from the server defaults on the
// ingest routes (update/flush) when Options.Lazy is set; reads on unknown
// tenants are 404.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"topkmon/topk"
)

// Options configures a Server.
type Options struct {
	// Defaults seeds every lazily-created tenant and fills zero fields of
	// explicit create requests. Zero fields of Defaults itself fall back to
	// the package baseline (64 nodes, k=4, ε=1/8, lockstep, approx, seed 1).
	Defaults Config
	// Lazy creates unknown tenants from Defaults on first ingest.
	Lazy bool
	// MaxTenants bounds the pool (0 = unlimited).
	MaxTenants int
	// MaxBatch bounds updates per request (0 = 65536).
	MaxBatch int
	// MaxBodyBytes bounds an update request body (0 = 4 MiB).
	MaxBodyBytes int64
	// Durability configures the write-ahead batch log. The zero value
	// (empty Dir) keeps the server volatile.
	Durability Durability
}

// Server owns the tenant pool and the HTTP handlers. It is an
// http.Handler; construct with New and mount anywhere (httptest, a real
// listener, a larger mux).
type Server struct {
	pool     *Pool
	maxBatch int
	maxBody  int64
	mux      *http.ServeMux

	// closing flips once on graceful shutdown: mutating routes refuse with
	// 503 + Retry-After while Close drains in-flight commits tenant by
	// tenant (each tenant mutex is taken before its monitor/log closes).
	closing atomic.Bool

	// batches recycles per-request decode buffers across the ingest path.
	batches sync.Pool
}

// New builds a Server from opts. It first builds one monitor from the
// defaults (and closes it), so defaults no tenant could be created from
// (an unparsable or zero ε, k not below the node count under approx) fail
// construction instead of every lazy creation. With durability configured
// it opens the data directory and replays every tenant found there before
// returning; a log that cannot be recovered exactly (lost acked data,
// unreplayable records) fails construction rather than serving a shorter
// history.
func New(opts Options) (*Server, error) {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 65536
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 4 << 20
	}
	mon, err := opts.Defaults.withDefaults(baseDefaults).build()
	if err != nil {
		return nil, fmt.Errorf("defaults: %w", err)
	}
	mon.Close()
	store, err := opts.Durability.openStore()
	if err != nil {
		return nil, err
	}
	s := &Server{
		pool:     NewPool(opts.Defaults, opts.Lazy, opts.MaxTenants, store),
		maxBatch: opts.MaxBatch,
		maxBody:  opts.MaxBodyBytes,
		mux:      http.NewServeMux(),
	}
	if store != nil {
		if err := s.pool.recover(); err != nil {
			s.pool.Close()
			return nil, err
		}
	}
	s.batches.New = func() any { b := make([]topk.Update, 0, 256); return &b }

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/tenants", s.handleList)
	s.mux.HandleFunc("PUT /v1/{tenant}", s.handleCreate)
	s.mux.HandleFunc("DELETE /v1/{tenant}", s.handleDelete)
	s.mux.HandleFunc("GET /v1/{tenant}", s.handleInfo)
	s.mux.HandleFunc("POST /v1/{tenant}/update", s.handleUpdate)
	s.mux.HandleFunc("POST /v1/{tenant}/flush", s.handleFlush)
	s.mux.HandleFunc("POST /v1/{tenant}/reset", s.handleReset)
	s.mux.HandleFunc("GET /v1/{tenant}/topk", s.handleTopK)
	s.mux.HandleFunc("GET /v1/{tenant}/cost", s.handleCost)
	s.mux.HandleFunc("GET /v1/{tenant}/health", s.handleHealth)
	s.mux.HandleFunc("GET /v1/{tenant}/events", s.handleEvents)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Pool exposes the tenant pool for the embedding binary's lifecycle
// (pre-creating tenants from flags, closing on shutdown).
func (s *Server) Pool() *Pool { return s.pool }

// Close drains and shuts the server down: new mutations are refused with
// 503 + Retry-After, in-flight commits finish (each tenant's mutex is
// taken before its log/monitor closes), logs are fsynced and closed, and
// the store is released. Durable files stay for the next boot.
func (s *Server) Close() {
	s.closing.Store(true)
	s.pool.Close()
}

// draining refuses a mutating request during graceful shutdown.
func (s *Server) draining(w http.ResponseWriter) bool {
	if !s.closing.Load() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusServiceUnavailable, errors.New("serve: shutting down"))
	return true
}

// ---- wire shapes ----

type errorResponse struct {
	Error string `json:"error"`
}

type updateResponse struct {
	Step int64 `json:"step"`
	// Duplicate reports that the request's ?seq= was already committed;
	// the batch was acknowledged without committing a second step.
	// omitempty keeps the non-idempotent wire shape byte-identical.
	Duplicate bool `json:"duplicate,omitempty"`
}

type topkResponse struct {
	Step int64 `json:"step"`
	K    int   `json:"k"`
	TopK []int `json:"topk"`
}

type healthJSON struct {
	State    string `json:"state"`
	StaleFor int64  `json:"staleFor"`
	Err      string `json:"err,omitempty"`
}

type healthResponse struct {
	Steps  int64      `json:"steps"`
	Check  string     `json:"check"` // "ok" or the referee's error
	Health healthJSON `json:"health"`
}

// costResponse is the full introspection snapshot: the embedded topk.Cost,
// whose JSON keys appear inline, plus algorithm, epochs, the referee
// verdict, and health. SilentInvalid is the no-silent-wrong-answers alarm —
// a failing Check while Health claims Fresh — which TestServeEquivalence
// and the benchmark's served workloads fail on.
type costResponse struct {
	Algorithm string `json:"algorithm"`
	Epochs    int64  `json:"epochs"`
	topk.Cost
	Check         string     `json:"check"`
	Health        healthJSON `json:"health"`
	SilentInvalid bool       `json:"silentInvalid"`
}

type tenantInfo struct {
	Name      string `json:"name"`
	Config    Config `json:"config"`
	Steps     int64  `json:"steps"`
	Algorithm string `json:"algorithm"`
}

type resetRequest struct {
	Seed uint64 `json:"seed"`
}

// ---- helpers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// poolErr maps pool/facade errors to HTTP statuses. The overload
// responses (tenant-cap conflicts and limits) carry Retry-After so a
// well-behaved client backs off instead of hammering the cap.
func poolErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownTenant):
		writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, ErrTenantExists):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusConflict, err)
	case errors.Is(err, ErrTooManyTenant):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, topk.ErrClosed):
		// The tenant was deleted while this request held it.
		writeErr(w, http.StatusGone, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}

// tenant resolves {tenant} for a read route (no lazy creation).
func (s *Server) tenant(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	name := r.PathValue("tenant")
	t, err := s.pool.Get(name)
	if err != nil {
		poolErr(w, err)
		return nil, false
	}
	return t, true
}

// ingestTenant resolves {tenant} for an ingest route, creating it lazily
// when the pool allows.
func (s *Server) ingestTenant(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	name := r.PathValue("tenant")
	t, err := s.pool.GetOrCreate(name)
	if err != nil {
		poolErr(w, err)
		return nil, false
	}
	return t, true
}

func healthOf(h topk.Health) healthJSON {
	j := healthJSON{State: h.State.String(), StaleFor: h.StaleFor}
	if h.Err != nil {
		j.Err = h.Err.Error()
	}
	return j
}

func infoOf(t *Tenant) tenantInfo {
	return tenantInfo{Name: t.Name, Config: t.Cfg, Steps: t.Mon.Steps(), Algorithm: t.Mon.AlgorithmName()}
}

func checkString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "tenants": len(s.pool.List())})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	ts := s.pool.List()
	out := make([]tenantInfo, 0, len(ts))
	for _, t := range ts {
		out = append(out, infoOf(t))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining(w) {
		return
	}
	name := r.PathValue("tenant")
	var cfg Config
	if r.ContentLength != 0 {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: config: %w", err))
			return
		}
	}
	t, err := s.pool.Create(name, cfg)
	if err != nil {
		poolErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, infoOf(t))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.draining(w) {
		return
	}
	if err := s.pool.Delete(r.PathValue("tenant")); err != nil {
		poolErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, infoOf(t))
}

// handleUpdate is the hot path: decode one batch (strictly, all-or-nothing
// — see DecodeBatch), journal it when the server is durable, and commit it
// as ONE monitored time step, reporting the tenant's step count.
// ?client=…&seq=… makes the request idempotent: a retry of an
// already-committed seq is acknowledged with {"duplicate":true} and
// commits nothing. With concurrent posters the reported step is the
// monitor's count at read time, not necessarily the step this batch
// committed — per-tenant ordering across clients is the callers' business,
// exactly as with direct UpdateBatch use.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.draining(w) {
		return
	}
	client, seq, err := ParseIngestID(r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	t, ok := s.ingestTenant(w, r)
	if !ok {
		return
	}
	bufp := s.batches.Get().(*[]topk.Update)
	defer func() { s.batches.Put(bufp) }()
	batch, err := DecodeBatch(http.MaxBytesReader(w, r.Body, s.maxBody), *bufp, s.maxBatch)
	if err != nil {
		var tooBig *http.MaxBytesError
		status := http.StatusBadRequest
		if errors.As(err, &tooBig) || errors.Is(err, ErrBatchTooLarge) {
			// Overload, not malformation: tell the client when to retry
			// (with a smaller batch).
			status = http.StatusRequestEntityTooLarge
			w.Header().Set("Retry-After", "1")
		}
		writeErr(w, status, err)
		return
	}
	*bufp = batch
	step, dup, err := t.CommitBatch(batch, client, seq)
	if err != nil {
		poolErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, updateResponse{Step: step, Duplicate: dup})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if s.draining(w) {
		return
	}
	t, ok := s.ingestTenant(w, r)
	if !ok {
		return
	}
	step, err := t.CommitFlush()
	if err != nil {
		poolErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, updateResponse{Step: step})
}

func (s *Server) handleReset(w http.ResponseWriter, r *http.Request) {
	if s.draining(w) {
		return
	}
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	req := resetRequest{Seed: t.Cfg.Seed}
	if r.ContentLength != 0 {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: reset: %w", err))
			return
		}
	}
	step, err := t.CommitReset(req.Seed)
	if err != nil {
		poolErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, updateResponse{Step: step})
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	ids := t.Mon.TopK(make([]int, 0, t.Mon.K()))
	writeJSON(w, http.StatusOK, topkResponse{Step: t.Mon.Steps(), K: t.Mon.K(), TopK: ids})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, healthResponse{
		Steps:  t.Mon.Steps(),
		Check:  checkString(t.Mon.Check()),
		Health: healthOf(t.Mon.Health()),
	})
}

// handleCost serves the introspection snapshot. Check/Health/Cost are
// separate facade calls; to keep the SilentInvalid verdict sound under
// concurrent ingest, the snapshot is retried until no step commits while
// it is being taken (three attempts, then served as-is — scrapers of a
// deliberately quiesced tenant, like the benchmark between passes, always
// get a consistent one).
func (s *Server) handleCost(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	m := t.Mon
	var resp costResponse
	for attempt := 0; attempt < 3; attempt++ {
		before := m.Steps()
		chk := m.Check()
		h := m.Health()
		resp = costResponse{
			Algorithm:     m.AlgorithmName(),
			Epochs:        m.Epochs(),
			Cost:          m.Cost(),
			Check:         checkString(chk),
			Health:        healthOf(h),
			SilentInvalid: chk != nil && h.State == topk.Fresh,
		}
		if m.Steps() == before {
			break
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
