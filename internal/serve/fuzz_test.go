package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"topkmon/topk"
)

// FuzzBatchDecode throws arbitrary bytes at the update-batch request path
// and pins three properties end to end:
//
//  1. DecodeBatch equals decodeBatchJSON, the encoding/json decoder it
//     replaced: both accept or reject alike, return the same batch and
//     agree on ErrBatchTooLarge, at max 1 and at max 32.
//  2. Behind an http.MaxBytesReader whose limit the body exceeds, the
//     error is always an *http.MaxBytesError (so the handler answers 413).
//  3. All-or-nothing ingest: a request the handlers reject — malformed
//     JSON, overflowing ids, out-of-range nodes/values, oversized batches,
//     trailing garbage — commits no step and leaves the monitor's output
//     untouched; an accepted request commits exactly one step.
func FuzzBatchDecode(f *testing.F) {
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"node":0,"value":5}]`))
	f.Add([]byte(`[{"node":3,"value":1048576},{"node":0,"value":0}]`))
	f.Add([]byte(`[{"node":0,`))
	f.Add([]byte(`{"node":0,"value":1}`))
	f.Add([]byte(`[{"node":99999999999999999999,"value":1}]`))
	f.Add([]byte(`[{"node":0,"value":99999999999999999999}]`))
	f.Add([]byte(`[{"node":-1,"value":1}]`))
	f.Add([]byte(`[{"node":0,"value":-1}]`))
	f.Add([]byte(`[{"node":1.5,"value":1}]`))
	f.Add([]byte(`[{"node":0,"value":1,"extra":true}]`))
	f.Add([]byte(`[{"node":0}]`))
	f.Add([]byte(`[{"value":1}]`))
	f.Add([]byte(`[{"node":0,"value":1}] trailing`))
	f.Add([]byte(`[null]`))
	f.Add([]byte("[" + strings.Repeat(`{"node":0,"value":1},`, 40) + `{"node":0,"value":1}]`))
	f.Add([]byte("\x00\xff\xfe"))
	for _, c := range goldenGood {
		f.Add([]byte(c.in))
	}
	for _, in := range goldenBad {
		f.Add([]byte(in))
	}
	for _, in := range goldenTooLarge {
		f.Add([]byte(in))
	}

	const maxBatch = 32
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoder-level: no panics, hard cap honored, same outcome as the
		// encoding/json reference.
		for _, max := range []int{1, maxBatch} {
			got, err := DecodeBatch(bytes.NewReader(data), nil, max)
			want, wantErr := decodeBatchJSON(bytes.NewReader(data), nil, max)
			if (err == nil) != (wantErr == nil) || !slices.Equal(got, want) ||
				errors.Is(err, ErrBatchTooLarge) != errors.Is(wantErr, ErrBatchTooLarge) {
				t.Fatalf("max %d: DecodeBatch = %v, %v; encoding/json reference = %v, %v",
					max, got, err, want, wantErr)
			}
			if err == nil && len(got) > max {
				t.Fatalf("decoded %d > max %d updates", len(got), max)
			}
		}

		// Body limit: an over-limit body is always a MaxBytesError, and a
		// body within the limit decodes as if unbounded.
		if len(data) > 0 {
			limit := int64(data[len(data)-1]) % int64(len(data)+1)
			got, err := DecodeBatch(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(data)), limit), nil, maxBatch)
			var tooBig *http.MaxBytesError
			if int64(len(data)) > limit && !errors.As(err, &tooBig) {
				t.Fatalf("body of %d bytes over limit %d: %v, %v; want *http.MaxBytesError", len(data), limit, got, err)
			}
			if int64(len(data)) <= limit {
				want, wantErr := DecodeBatch(bytes.NewReader(data), nil, maxBatch)
				if (err == nil) != (wantErr == nil) || !slices.Equal(got, want) {
					t.Fatalf("body within limit: %v, %v; unbounded: %v, %v", got, err, want, wantErr)
				}
			}
		}

		// Handler-level: a tiny single-tenant server; the request either
		// commits exactly one step or leaves the tenant untouched.
		s, err := New(Options{Defaults: Config{Nodes: 4, K: 1, Seed: 1}, Lazy: true, MaxBatch: maxBatch})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		seedReq := httptest.NewRequest(http.MethodPost, "/v1/f/update",
			strings.NewReader(`[{"node":0,"value":7},{"node":1,"value":3}]`))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, seedReq)
		if rec.Code != http.StatusOK {
			t.Fatalf("seeding step: %d", rec.Code)
		}
		ten, err := s.Pool().Get("f")
		if err != nil {
			t.Fatal(err)
		}
		before := ten.Mon.Steps()
		topBefore := ten.Mon.TopK(nil)

		req := httptest.NewRequest(http.MethodPost, "/v1/f/update", bytes.NewReader(data))
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, req)

		after := ten.Mon.Steps()
		switch {
		case rec.Code == http.StatusOK:
			if after != before+1 {
				t.Fatalf("accepted batch committed %d steps", after-before)
			}
		case after != before:
			t.Fatalf("rejected batch (status %d) committed %d steps", rec.Code, after-before)
		default:
			if topAfter := ten.Mon.TopK(nil); !equalIDs(topBefore, topAfter) {
				t.Fatalf("rejected batch (status %d) mutated output %v -> %v",
					rec.Code, topBefore, topAfter)
			}
		}
	})
}

// updateJSON is the wire shape of one update for decodeBatchJSON. Pointer
// fields distinguish "absent" from a legitimate zero.
type updateJSON struct {
	Node  *int   `json:"node"`
	Value *int64 `json:"value"`
}

// decodeBatchJSON is the encoding/json batch decoder DecodeBatch replaced,
// kept as FuzzBatchDecode's reference for the accepted language.
func decodeBatchJSON(r io.Reader, dst []topk.Update, max int) ([]topk.Update, error) {
	dst = dst[:0]
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()

	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("serve: batch: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return nil, fmt.Errorf("serve: batch must be a JSON array, got %v", tok)
	}
	for dec.More() {
		if len(dst) >= max {
			return nil, fmt.Errorf("%w (max %d)", ErrBatchTooLarge, max)
		}
		var u updateJSON
		if err := dec.Decode(&u); err != nil {
			return nil, fmt.Errorf("serve: batch element %d: %w", len(dst), err)
		}
		if u.Node == nil || u.Value == nil {
			return nil, fmt.Errorf("serve: batch element %d: need both \"node\" and \"value\"", len(dst))
		}
		dst = append(dst, topk.Update{Node: *u.Node, Value: *u.Value})
	}
	if _, err := dec.Token(); err != nil { // the closing ']'
		return nil, fmt.Errorf("serve: batch: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("serve: trailing data after batch array")
	}
	return dst, nil
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// goldenGood are batches the decoder accepts (at max 32), with the batch
// each one decodes to.
var goldenGood = []struct {
	in   string
	want []topk.Update
}{
	{`[]`, nil},
	{`[{"node":0,"value":5}]`, []topk.Update{{Node: 0, Value: 5}}},
	{`[{"node":3,"value":1048576},{"node":0,"value":0}]`, []topk.Update{{Node: 3, Value: 1048576}, {Node: 0, Value: 0}}},
	{`[{"node":-1,"value":1}]`, []topk.Update{{Node: -1, Value: 1}}}, // range is the monitor's call
	{`[{"node":0,"value":-1}]`, []topk.Update{{Node: 0, Value: -1}}},
	// Keys match under ASCII case folding, after unescaping.
	{`[{"NODE":1,"Value":2}]`, []topk.Update{{Node: 1, Value: 2}}},
	{`[{"node":1,"value":2}]`, []topk.Update{{Node: 1, Value: 2}}},
	{`[{"n\u006fDe":1,"valu\u0045":2}]`, []topk.Update{{Node: 1, Value: 2}}},
	// A repeated key overwrites; null clears, a later value sets again.
	{`[{"node":1,"node":2,"value":3}]`, []topk.Update{{Node: 2, Value: 3}}},
	{`[{"node":null,"node":1,"value":2}]`, []topk.Update{{Node: 1, Value: 2}}},
	{`[{"node":-0,"value":-0}]`, []topk.Update{{Node: 0, Value: 0}}},
	{`[{"node":0,"value":9223372036854775807}]`, []topk.Update{{Node: 0, Value: math.MaxInt64}}},
	{`[{"node":0,"value":-9223372036854775808}]`, []topk.Update{{Node: 0, Value: math.MinInt64}}},
	// Every kind of JSON whitespace around every token.
	{strings.ReplaceAll(`_[_{_"node"_:_1_,_"value"_:_2_}_,_{"value":4,"node":3}_]_`, "_", " \t\n\r"),
		[]topk.Update{{Node: 1, Value: 2}, {Node: 3, Value: 4}}},
}

// goldenBad are batches the decoder rejects as malformed (400) at max 32.
var goldenBad = []string{
	``,
	`[{"node":0,`,
	`{"node":0,"value":1}`,
	`[{"node":99999999999999999999,"value":1}]`,
	`[{"node":0,"value":1,"extra":true}]`,
	`[{"node":0}]`,
	`[{"value":1}]`,
	`[{"node":0,"value":1}] trailing`,
	`[null]`,
	`[{"node":1.5,"value":1}]`,
	`[{"node":1,"node":null,"value":2}]`,
	`[{"node":0,"value":9223372036854775808}]`,
	`[{"node":0,"value":-9223372036854775809}]`,
	`[{"node":01,"value":1}]`,
	`[{"node":0,"value":1e0}]`,
	`[{"node":0,"value":1.0}]`,
	`[{"node":0,"value":"1"}]`,
	`[{"node":0,"value":true}]`,
	`[{"node":0,"value":[1]}]`,
	`[{"node":0,"value":{}}]`,
	"\xef\xbb\xbf[]",
	`[1]`,
	`[{}]`,
	`[{"nodé":0,"value":1}]`,
	`[{"node":0,"value":1}}`,
	`[{"node":0,"value":1}][]`,
	`[{"node":0,"value":1},]`,
	`[{"node":0,"value":1}`,
	`[,{"node":0,"value":1}]`,
}

// goldenTooLarge are batches rejected with ErrBatchTooLarge (413) at max 1:
// the cap fires on the byte after an element before that byte is parsed.
var goldenTooLarge = []string{
	`[{"node":0,"value":1},{"node":1,"value":2}]`,
	`[{"node":0,"value":1},]`,
	`[{"node":0,"value":1},garbage`,
}

// TestDecodeBatchGolden re-checks the golden cases without the fuzz
// engine, so `go test` alone covers them.
func TestDecodeBatchGolden(t *testing.T) {
	for _, c := range goldenGood {
		batch, err := DecodeBatch(strings.NewReader(c.in), nil, 32)
		if err != nil || !slices.Equal(batch, c.want) {
			t.Errorf("DecodeBatch(%q) = %v, %v; want %v", c.in, batch, err, c.want)
		}
	}
	for _, in := range goldenBad {
		if batch, err := DecodeBatch(strings.NewReader(in), nil, 32); err == nil || errors.Is(err, ErrBatchTooLarge) {
			t.Errorf("DecodeBatch(%q) = %v, %v; want a malformed-batch error", in, batch, err)
		}
	}
	for _, in := range goldenTooLarge {
		if batch, err := DecodeBatch(strings.NewReader(in), nil, 1); !errors.Is(err, ErrBatchTooLarge) {
			t.Errorf("DecodeBatch(%q, max 1) = %v, %v; want ErrBatchTooLarge", in, batch, err)
		}
	}
}
