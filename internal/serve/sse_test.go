package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"topkmon/internal/chaintest"
)

// sseClient consumes /v1/{tenant}/events from a real listener, delivering
// each decoded frame on Events. Construction blocks until the stream's
// opening comment arrives, so callers know the subscription exists before
// they start driving steps.
type sseClient struct {
	resp   *http.Response
	Events chan eventJSON
}

func newSSEClient(t *testing.T, base, tenant string) *sseClient {
	t.Helper()
	resp, err := http.Get(base + "/v1/" + tenant + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("events content-type = %q", ct)
	}
	c := &sseClient{resp: resp, Events: make(chan eventJSON, 1024)}
	ready := make(chan struct{})
	go func() {
		defer close(c.Events)
		sc := bufio.NewScanner(resp.Body)
		opened := false
		for sc.Scan() {
			line := sc.Text()
			if !opened && strings.HasPrefix(line, ":") {
				opened = true
				close(ready)
				continue
			}
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				var ev eventJSON
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					return
				}
				c.Events <- ev
			}
		}
	}()
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		resp.Body.Close()
		t.Fatal("SSE stream did not open")
	}
	return c
}

func (c *sseClient) Close() { c.resp.Body.Close() }

// putTenant materializes a tenant from the server defaults over HTTP (the
// events route reads, so it does not create lazily).
func putTenant(t *testing.T, hc *http.Client, base, name string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/"+name, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: status = %d", name, resp.StatusCode)
	}
}

// TestSSEBridgeMatchesSubscribe is the SSE link of the chain: it drives a
// trace through a served tenant with an SSE consumer attached and through
// a facade monitor built for the same row with a Subscribe channel, and
// asserts the stream carried exactly the events Subscribe delivered —
// same steps, same sets, same health, same order, nothing extra. The
// comparison is synchronous: the facade delivers events inside
// UpdateBatch, so after each step its event (if any) is already buffered,
// and the bridge's frame for it is awaited before the next step; neither
// side can overrun a subscription buffer. The churn trace this test ran
// before the table, where the hot set rotates by one node per step so
// nearly every commit changes the set, runs first; then the table rows.
func TestSSEBridgeMatchesSubscribe(t *testing.T) {
	srv := newTestServer(t, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var clients []*sseClient
	// Close the streams before the listener, which waits for them.
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	run := func(t *testing.T, tenant string, r chaintest.Row) (events int) {
		trace := r.Reference().Trace
		direct := chaintest.NewPusher(r)
		defer direct.M.Close()
		directCh := direct.M.Subscribe()
		// Subscribe BEFORE the first step so no event predates the bridge.
		createTenant(t, srv, tenant, rowConfig(r, r.Sparse))
		sse := newSSEClient(t, ts.URL, tenant)
		clients = append(clients, sse)

		v := &served{t: t, s: srv, tenant: tenant}
		for _, b := range trace {
			v.Step(b)
			direct.Step(b)
			for len(directCh) > 0 {
				want := <-directCh
				select {
				case g, ok := <-sse.Events:
					if !ok {
						t.Fatalf("SSE stream ended at step %d", want.Step)
					}
					// A frame spells health without its error text.
					if g.Step != want.Step || !slices.Equal(g.TopK, want.TopK) ||
						g.Health.State != want.Health.State.String() || g.Health.StaleFor != want.Health.StaleFor {
						t.Fatalf("event %d: served %+v != direct {step:%d topk:%v health:%s/%d}",
							events, g, want.Step, want.TopK, want.Health.State, want.Health.StaleFor)
					}
					events++
				case <-time.After(5 * time.Second):
					t.Fatalf("SSE frame for step %d never arrived", want.Step)
				}
			}
		}
		return events
	}

	churn := chaintest.Kept("sse")
	if events := run(t, "sub", churn); events < churn.Steps/2 {
		t.Fatalf("vacuous trace: only %d set changes over %d steps", events, churn.Steps)
	}
	for i, r := range chaintest.Rows(chaintest.SSE) {
		t.Run(r.Name, func(t *testing.T) { run(t, fmt.Sprint("row", i), r) })
	}
	// Silence after the traces: the bridge forwarded nothing more.
	time.Sleep(50 * time.Millisecond)
	for _, c := range clients {
		select {
		case ev := <-c.Events:
			t.Fatalf("unexpected extra SSE event: %+v", ev)
		default:
		}
	}
}

// TestSSESlowClientDoesNotBlockIngest pins the delivery contract under a
// subscriber that never reads: the step loop keeps committing at full
// speed (events drop at the facade's subscription buffer), and a fresh
// subscriber attached afterwards still receives events.
func TestSSESlowClientDoesNotBlockIngest(t *testing.T) {
	const n, steps = 8, 400
	srv := newTestServer(t, Options{Defaults: Config{Nodes: n, K: 1, Seed: 2}, Lazy: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	hc := ts.Client()

	// A connected subscriber that never reads its stream.
	putTenant(t, hc, ts.URL, "s")
	resp, err := hc.Get(ts.URL + "/v1/s/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Leader flips between node 0 and node 1 every step: every commit is a
	// top-k-set change, so the slow subscriber falls behind immediately.
	post := func(hot int) {
		body := fmt.Sprintf(`[{"node":0,"value":%d},{"node":1,"value":%d}]`,
			1000+999000*((hot+1)%2), 1000+999000*(hot%2))
		r, err := hc.Post(ts.URL+"/v1/s/update", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("update status = %d", r.StatusCode)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < steps; i++ {
			post(i)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ingest stalled behind a slow SSE subscriber")
	}

	// The monitor committed every step despite the unread stream.
	cr, err := hc.Get(ts.URL + "/v1/s/cost")
	if err != nil {
		t.Fatal(err)
	}
	var cost costResponse
	err = json.NewDecoder(cr.Body).Decode(&cost)
	cr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if cost.Steps != steps {
		t.Fatalf("steps = %d, want %d", cost.Steps, steps)
	}

	// A fresh subscriber still gets live events. The loop ended on
	// hot = steps-1 (odd), so hot = 0 flips the leader again.
	fresh := newSSEClient(t, ts.URL, "s")
	defer fresh.Close()
	post(0)
	select {
	case ev, ok := <-fresh.Events:
		if !ok {
			t.Fatal("fresh SSE stream closed immediately")
		}
		if len(ev.TopK) != 1 {
			t.Fatalf("fresh event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fresh subscriber received nothing")
	}
}

// TestSSEDisconnectCleansUp pins the Unsubscribe bridge: cycling many
// short-lived SSE consumers leaves no goroutines behind once they
// disconnect (the handler returns on context cancellation and removes its
// subscription).
func TestSSEDisconnectCleansUp(t *testing.T) {
	srv := newTestServer(t, Options{Defaults: Config{Nodes: 8, K: 1, Seed: 2}, Lazy: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// Materialize the tenant.
	resp, err := ts.Client().Post(ts.URL+"/v1/d/flush", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for i := 0; i < 20; i++ {
		c := newSSEClient(t, ts.URL, "d")
		c.Close()
	}
	// Deleting the tenant closes any surviving subscription channels; a
	// leaked handler goroutine would deadlock Close if it still blocked the
	// facade. Reaching this point quickly is the assertion; the race job
	// additionally verifies no unsynchronized teardown.
	if err := srv.Pool().Delete("d"); err != nil {
		t.Fatal(err)
	}
}
