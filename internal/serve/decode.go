package serve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/url"
	"strconv"
	"sync"

	"topkmon/topk"
)

// ErrBatchTooLarge rejects a batch exceeding the server's per-request
// update limit before it is fully decoded.
var ErrBatchTooLarge = errors.New("serve: batch exceeds update limit")

// bodyPool recycles request-body buffers, so a steady stream of batches
// decodes without allocating.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// DecodeBatch strictly decodes an update batch — a JSON array of
// {"node": int, "value": int64} objects — appending to dst[:0] and reusing
// its capacity. It reads the whole body through r (so a caller's
// http.MaxBytesReader still bounds it) and parses it in one pass.
//
// The accepted language is exactly what encoding/json with
// DisallowUnknownFields and pointer presence checks accepts
// (FuzzBatchDecode holds the two equal):
//   - JSON whitespace (space, tab, LF, CR) may appear between tokens; one
//     top-level array, then only whitespace up to EOF; no BOM.
//   - Every element is an object whose keys, after JSON unescaping, equal
//     "node" or "value" under ASCII case folding; any other key rejects.
//     A repeated key overwrites the earlier one, null clears the field,
//     and both fields must be set when the object closes.
//   - A field value is null or an integer literal -?(0|[1-9][0-9]*) within
//     int64 (node within int): no fraction, exponent, string or other type.
//
// It is all-or-nothing by construction: any error returns a nil batch, so
// a handler can never partially apply a bad request. ErrBatchTooLarge
// fires when the batch already holds max updates and the next
// non-whitespace byte after '[' or after an element is neither ']' nor
// '}'. A read error is wrapped, so an *http.MaxBytesError stays visible to
// errors.As and an over-limit body always answers 413. Range validation of
// node ids and values stays with Monitor.UpdateBatch, which itself
// validates the whole batch before staging anything.
func DecodeBatch(r io.Reader, dst []topk.Update, max int) ([]topk.Update, error) {
	bp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bp)
	body, err := readBody(r, (*bp)[:0])
	*bp = body
	if err != nil {
		return nil, fmt.Errorf("serve: batch: %w", err)
	}

	p := batchParser{b: body}
	dst = dst[:0]
	p.space()
	if !p.eat('[') {
		return nil, p.fail("not a JSON array")
	}
	for p.space(); ; p.space() {
		if p.i == len(p.b) {
			return nil, p.fail("unexpected end of batch")
		}
		if c := p.b[p.i]; c == ']' {
			p.i++
			break
		} else if c == '}' {
			return nil, p.fail("unexpected '}'")
		}
		if len(dst) >= max {
			return nil, fmt.Errorf("%w (max %d)", ErrBatchTooLarge, max)
		}
		if len(dst) > 0 {
			if !p.eat(',') {
				return nil, p.fail("expected ',' or ']' after element")
			}
			p.space()
		}
		u, err := p.element()
		if err != nil {
			return nil, fmt.Errorf("serve: batch element %d: %w", len(dst), err)
		}
		dst = append(dst, u)
	}
	if p.space(); p.i != len(p.b) {
		return nil, p.fail("trailing data after batch array")
	}
	return dst, nil
}

// readBody appends all of r to b.
func readBody(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// batchParser is a cursor over a batch body.
type batchParser struct {
	b []byte
	i int
}

func (p *batchParser) fail(what string) error {
	return fmt.Errorf("serve: batch: %s at byte %d", what, p.i)
}

// space skips JSON whitespace.
func (p *batchParser) space() {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\t' || p.b[p.i] == '\n' || p.b[p.i] == '\r') {
		p.i++
	}
}

// eat consumes c if it is the next byte.
func (p *batchParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// element parses one {"node": …, "value": …} object.
func (p *batchParser) element() (topk.Update, error) {
	if !p.eat('{') {
		return topk.Update{}, p.fail("element is not an object")
	}
	var node, value int64
	var haveNode, haveValue bool
	if p.space(); !p.eat('}') {
		for {
			isValue, ok := p.key()
			if !ok {
				return topk.Update{}, p.fail(`want key "node" or "value"`)
			}
			if p.space(); !p.eat(':') {
				return topk.Update{}, p.fail("expected ':' after key")
			}
			p.space()
			v, set, ok := p.number()
			if !ok {
				return topk.Update{}, p.fail("want null or an int64 literal")
			}
			if isValue {
				value, haveValue = v, set
			} else {
				node, haveNode = v, set
			}
			if p.space(); p.eat('}') {
				break
			}
			if !p.eat(',') {
				return topk.Update{}, p.fail("expected ',' or '}' in object")
			}
			p.space()
		}
	}
	if !haveNode || !haveValue {
		return topk.Update{}, errors.New(`need both "node" and "value"`)
	}
	if int64(int(node)) != node {
		return topk.Update{}, errors.New("node overflows int")
	}
	return topk.Update{Node: int(node), Value: value}, nil
}

// The two keys as key packs them: lower-cased bytes, the first one highest.
const (
	keyNode  = 'n'<<24 | 'o'<<16 | 'd'<<8 | 'e'
	keyValue = 'v'<<32 | 'a'<<24 | 'l'<<16 | 'u'<<8 | 'e'
)

// key parses an object key and reports whether it names "value" (else
// "node"). ok is false for any other key, compared after unescaping under
// ASCII case folding; no non-ASCII rune folds onto a letter of either
// name, so this is the same match as encoding/json's.
func (p *batchParser) key() (isValue, ok bool) {
	if !p.eat('"') {
		return false, false
	}
	b := p.b
	var w uint64 // the key so far, lower-cased, one byte per 8 bits
	for n, i := 0, p.i; i < len(b); n++ {
		c := b[i]
		i++
		switch c {
		case '"':
			p.i = i
			return w == keyValue, w == keyNode || w == keyValue
		case '\\':
			// Only a \u00XX escape can spell an ASCII letter.
			if i+5 > len(b) || b[i] != 'u' {
				return false, false
			}
			u, err := strconv.ParseUint(string(b[i+1:i+5]), 16, 16)
			if err != nil || u >= 0x80 {
				return false, false
			}
			c = byte(u)
			i += 5
		}
		if n == len("value") {
			return false, false
		}
		w = w<<8 | uint64(c|0x20) // lower-cases letters; maps no other byte onto one
	}
	return false, false
}

// number parses null (set false) or an integer literal -?(0|[1-9][0-9]*)
// within int64. What follows the digits is left to the caller, which
// accepts only whitespace, ',' or '}', so fractions and exponents reject.
func (p *batchParser) number() (v int64, set, ok bool) {
	b, i := p.b, p.i
	if len(b)-i >= len("null") && string(b[i:i+len("null")]) == "null" {
		p.i += len("null")
		return 0, false, true
	}
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		u = u*10 + uint64(b[i]-'0')
	}
	p.i = i
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	// 19 digits cannot wrap a uint64, so u > limit is the overflow test.
	if digits := i - start; digits == 0 || digits > 19 || (b[start] == '0' && digits > 1) || u > limit {
		return 0, false, false
	}
	if neg {
		return -int64(u), true, true
	}
	return int64(u), true, true
}

// ParseIngestID extracts the idempotency parameters of an update request:
// ?client= names the retrying client (any short string; "" is a valid
// single-client identity) and ?seq= is its positive sequence number. seq
// absent or 0 means "no idempotency requested" — the batch always commits
// a fresh step. A seq that is present but unparsable is a client bug and
// is rejected rather than silently committed without idempotency.
func ParseIngestID(q url.Values) (client string, seq uint64, err error) {
	client = q.Get("client")
	if len(client) > 128 {
		return "", 0, errors.New("serve: client id longer than 128 bytes")
	}
	raw := q.Get("seq")
	if raw == "" {
		return client, 0, nil
	}
	seq, err = strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("serve: seq: %w", err)
	}
	return client, seq, nil
}
