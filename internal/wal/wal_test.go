package wal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"topkmon/topk"
)

func testRecords() []Record {
	return []Record{
		{Kind: KindConfig, Epoch: 1, Seed: 42, Config: []byte(`{"nodes":8,"k":2}`)},
		{Kind: KindBatch, Epoch: 1, Step: 1, Client: "c-1", Seq: 7,
			Batch: []topk.Update{{Node: 0, Value: 100}, {Node: 3, Value: 0}}},
		{Kind: KindBatch, Epoch: 1, Step: 2, Client: "", Seq: 0, Batch: nil},
		{Kind: KindDelete, Epoch: 1},
	}
}

// TestFrameRoundTrip: every record kind encodes to a frame that decodes
// back to the same record (modulo End), and the re-encode of the decoded
// prefix reproduces the input bytes exactly.
func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	want := testRecords()
	for i := range want {
		buf = AppendFrame(buf, &want[i])
	}
	recs, off := DecodePrefix(buf)
	if off != int64(len(buf)) {
		t.Fatalf("valid prefix %d, want %d", off, len(buf))
	}
	if len(recs) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(want))
	}
	var re []byte
	for i := range recs {
		got := recs[i]
		got.End = 0
		// Batch nil-vs-empty is an encoding detail; normalize for compare.
		if len(got.Batch) == 0 {
			got.Batch = nil
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("record %d: %+v != %+v", i, got, want[i])
		}
		re = AppendFrame(re, &recs[i])
	}
	if !bytes.Equal(re, buf) {
		t.Fatal("re-encoding the decoded prefix diverged from the input")
	}
}

// TestDecodePrefixTornTail: every strict prefix of a valid log decodes to
// exactly the records whose frames fit, with the truncation point at the
// last complete frame.
func TestDecodePrefixTornTail(t *testing.T) {
	var buf []byte
	var ends []int64
	for _, r := range testRecords() {
		buf = AppendFrame(buf, &r)
		ends = append(ends, int64(len(buf)))
	}
	for cut := 0; cut <= len(buf); cut++ {
		recs, off := DecodePrefix(buf[:cut])
		wantN := 0
		for _, e := range ends {
			if e <= int64(cut) {
				wantN++
			}
		}
		if len(recs) != wantN {
			t.Fatalf("cut %d: %d records, want %d", cut, len(recs), wantN)
		}
		if wantN > 0 && off != ends[wantN-1] {
			t.Fatalf("cut %d: truncation point %d, want %d", cut, off, ends[wantN-1])
		}
		if wantN == 0 && off != 0 {
			t.Fatalf("cut %d: truncation point %d, want 0", cut, off)
		}
	}
}

// TestDecodePrefixCorruption: a flipped bit anywhere inside a frame kills
// that frame and everything after it, never an earlier one.
func TestDecodePrefixCorruption(t *testing.T) {
	var buf []byte
	var ends []int64
	for _, r := range testRecords() {
		buf = AppendFrame(buf, &r)
		ends = append(ends, int64(len(buf)))
	}
	for pos := 0; pos < len(buf); pos++ {
		flip := append([]byte(nil), buf...)
		flip[pos] ^= 0x10
		recs, off := DecodePrefix(flip)
		// The flipped byte lives in frame idx; all earlier frames survive.
		idx := 0
		for idx < len(ends) && int64(pos) >= ends[idx] {
			idx++
		}
		if len(recs) < idx {
			t.Fatalf("flip@%d: lost record before the corruption (%d < %d)", pos, len(recs), idx)
		}
		if off > int64(len(flip)) {
			t.Fatalf("flip@%d: truncation point %d beyond input", pos, off)
		}
		// Whatever survived must re-encode to the claimed prefix.
		var re []byte
		for i := range recs {
			re = AppendFrame(re, &recs[i])
		}
		if !bytes.Equal(re, flip[:off]) {
			t.Fatalf("flip@%d: surviving prefix not canonical", pos)
		}
	}
}

// TestNonCanonicalRejected: a payload using a non-minimal varint decodes
// under binary.Uvarint but must be rejected as corruption, or the
// round-trip property would break.
func TestNonCanonicalRejected(t *testing.T) {
	rec := Record{Kind: KindDelete, Epoch: 1}
	frame := AppendFrame(nil, &rec)
	// Rebuild the frame with epoch 1 encoded as the two-byte varint 0x81
	// 0x00 instead of the minimal 0x01.
	payload := []byte{byte(KindDelete), 0x81, 0x00}
	bad := make([]byte, 0, frameHeader+len(payload))
	bad = append(bad, 0, 0, 0, 0, 0, 0, 0, 0)
	bad = append(bad, payload...)
	putFrameHeader(bad, payload)
	if len(bad) <= len(frame) {
		t.Fatal("test setup: non-minimal frame not longer")
	}
	recs, off := DecodePrefix(bad)
	if len(recs) != 0 || off != 0 {
		t.Fatalf("non-canonical frame accepted: %d records, offset %d", len(recs), off)
	}
}

// TestStoreLifecycle drives one tenant through the store: create, append,
// close, reopen (with a torn tail truncated), append more, compact,
// remove.
func TestStoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	l, err := s.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("x"); err == nil {
		t.Fatal("Create clobbered an existing log")
	}
	cfg := Record{Kind: KindConfig, Epoch: 1, Seed: 9, Config: []byte(`{}`)}
	if _, err := l.Append(&cfg); err != nil {
		t.Fatal(err)
	}
	b1 := Record{Kind: KindBatch, Epoch: 1, Step: 1, Batch: []topk.Update{{Node: 1, Value: 5}}}
	end, err := l.Append(&b1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: a half-written frame after the last good record.
	path := filepath.Join(dir, "x.wal")
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte{0xee, 0xff, 0x00})
	f.Close()

	s2, err := Open(Options{Dir: dir, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	names, err := s2.List()
	if err != nil || len(names) != 1 || names[0] != "x" {
		t.Fatalf("List = %v, %v", names, err)
	}
	l2, recs, snap, err := s2.OpenExisting("x")
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatalf("unexpected snapshot %+v", snap)
	}
	if len(recs) != 2 || recs[1].Step != 1 {
		t.Fatalf("reopened records: %+v", recs)
	}
	if fi, _ := os.Stat(path); fi.Size() != end {
		t.Fatalf("torn tail not truncated: size %d, want %d", fi.Size(), end)
	}
	b2 := Record{Kind: KindBatch, Epoch: 1, Step: 2}
	if _, err := l2.Append(&b2); err != nil {
		t.Fatal(err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if recs, off := DecodePrefix(data); len(recs) != 3 || off != int64(len(data)) {
		t.Fatalf("after append: %d records, %d/%d valid", len(recs), off, len(data))
	}

	// Compact to a fresh epoch: one record, smaller file.
	fresh := Record{Kind: KindConfig, Epoch: 2, Seed: 10, Config: []byte(`{}`)}
	l3, err := s2.Compact("x", &fresh)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	if recs, _ := DecodePrefix(data); len(recs) != 1 || recs[0].Epoch != 2 {
		t.Fatalf("after compact: %+v", recs)
	}
	if _, err := l3.Append(&Record{Kind: KindBatch, Epoch: 2, Step: 1}); err != nil {
		t.Fatal(err)
	}

	if err := s2.Remove("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("Remove left the log file")
	}
	if names, _ := s2.List(); len(names) != 0 {
		t.Fatalf("List after Remove = %v", names)
	}
}

// TestSnapshotTripwire: OpenExisting fails with ErrLostData when the valid
// prefix is shorter than the snapshot's synced offset, and succeeds when
// the snapshot is honest. Snapshots written before they lost their config
// and seed fields still load, and still trip.
func TestSnapshotTripwire(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l, err := s.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	end, err := l.Append(&Record{Kind: KindConfig, Epoch: 1, Seed: 1, Config: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	end2, err := l.Append(&Record{Kind: KindBatch, Epoch: 1, Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Epoch: 1, Steps: 1, Offset: end2, Watermarks: map[string]uint64{"a": 3}}
	if err := s.WriteSnapshot("x", snap); err != nil {
		t.Fatal(err)
	}
	l.Close()

	got, err := s.ReadSnapshot("x")
	if err != nil || got.Offset != end2 || got.Watermarks["a"] != 3 {
		t.Fatalf("ReadSnapshot = %+v, %v", got, err)
	}

	// The same snapshot in the older format, with its config and seed.
	old := fmt.Sprintf(`{"epoch":1,"steps":1,"offset":%d,"seed":1,"config":{},"watermarks":{"a":3}}`, end2)
	if err := os.WriteFile(filepath.Join(dir, "x.snap"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = s.ReadSnapshot("x")
	if err != nil || !reflect.DeepEqual(got, snap) {
		t.Fatalf("ReadSnapshot of the older format = %+v, %v", got, err)
	}

	// Honest log: reopen fine.
	s2, _ := Open(Options{Dir: dir, Policy: SyncNever})
	defer s2.Close()
	if _, _, _, err := s2.OpenExisting("x"); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	// Truncate below the vouched offset: boot must refuse.
	full, _ := os.ReadFile(filepath.Join(dir, "x.wal"))
	os.WriteFile(filepath.Join(dir, "x.wal"), full[:end], 0o644)
	s3, _ := Open(Options{Dir: dir, Policy: SyncNever})
	defer s3.Close()
	if _, _, _, err := s3.OpenExisting("x"); !errors.Is(err, ErrLostData) {
		t.Fatalf("OpenExisting on a shrunk log = %v, want ErrLostData", err)
	}
}

// TestParsePolicy covers the flag surface.
func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"always": SyncAlways, "Interval": SyncInterval, "NEVER": SyncNever} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() == "" {
			t.Errorf("Policy(%v).String() empty", got)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("ParsePolicy accepted garbage")
	}
}

// TestClosedAndBrokenLog: appends after Close refuse with ErrLogClosed;
// Close is idempotent.
func TestClosedAndBrokenLog(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(Options{Dir: dir, Policy: SyncNever})
	defer s.Close()
	l, err := s.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if _, err := l.Append(&Record{Kind: KindDelete, Epoch: 1}); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("append after close = %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("sync after close = %v", err)
	}
}

// putFrameHeader stamps length+CRC over a hand-built frame (test helper
// for constructing deliberately non-canonical payloads).
func putFrameHeader(frame, payload []byte) {
	le := func(off int, v uint32) {
		frame[off] = byte(v)
		frame[off+1] = byte(v >> 8)
		frame[off+2] = byte(v >> 16)
		frame[off+3] = byte(v >> 24)
	}
	le(0, uint32(len(payload)))
	le(4, crc32.Checksum(payload, castagnoli))
}
