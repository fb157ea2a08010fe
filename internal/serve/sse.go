package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// eventJSON is the SSE payload: a 1:1 rendering of topk.Event.
type eventJSON struct {
	Step   int64      `json:"step"`
	TopK   []int      `json:"topk"`
	Health healthJSON `json:"health"`
}

// handleEvents bridges Monitor.Subscribe onto Server-Sent Events: every
// facade Event (top-k-set change, or health change on a fault-armed
// tenant) becomes one "change" SSE frame. The bridge preserves the
// facade's delivery contract — the step loop never blocks on a consumer:
// a slow subscriber drops events at the facade's subscription buffer, and
// only this handler's goroutine ever waits on the client connection. On
// disconnect the subscription is removed (Monitor.Unsubscribe), on tenant
// Close/Delete the channel closes and the stream ends.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotImplemented, fmt.Errorf("serve: response writer cannot stream"))
		return
	}

	ch := t.Mon.Subscribe()
	defer t.Mon.Unsubscribe(ch)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// An initial comment line commits the headers so clients observe the
	// stream as established before the first event.
	fmt.Fprintf(w, ": subscribed tenant=%s\n\n", t.Name)
	flusher.Flush()

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, open := <-ch:
			if !open {
				return
			}
			data, err := json.Marshal(eventJSON{Step: ev.Step, TopK: ev.TopK, Health: healthOf(ev.Health)})
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: change\nid: %d\ndata: %s\n\n", ev.Step, data); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}
