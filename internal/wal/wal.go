// Package wal is the crash-safety layer under the HTTP frontend: a
// per-tenant append-only batch log whose replay reconstructs a tenant's
// monitor bit for bit.
//
// The design leans entirely on the repo's deterministic-replay discipline
// instead of serializing engine state: a monitor is a pure function of
// (config, seed, committed batch sequence), and Reset(seed) is proven
// byte-identical to fresh construction, so durability only has to make the
// *batch sequence* durable. A recovered tenant is `build(config)` +
// `Reset(seed)` + replay of the logged batches — outputs, the full cost
// counter snapshot, and even the fault injector's coin flips come back
// identical (TestRecoveryEquivalence in internal/serve).
//
// # Log format
//
// A log is a flat file of length-prefixed, CRC-framed records:
//
//	[4-byte LE payload length][4-byte LE CRC-32C of payload][payload]
//
// The payload starts with a one-byte record kind followed by canonical
// uvarint fields:
//
//	config (1): epoch, seed, len(config JSON), config JSON
//	            — opens a config epoch: tenant created (PUT) or reset.
//	            The config bytes are opaque to this package (the frontend
//	            stores its fully-populated tenant Config).
//	batch  (2): epoch, step, len(client id), client id, seq,
//	            count, count × (node, value)
//	            — one accepted UpdateBatch == one committed step. seq is
//	            the client's idempotency sequence number (0 = none); the
//	            highest committed seq per client is the exactly-once
//	            watermark, rebuilt from these records on recovery.
//	delete (3): epoch
//	            — the tenant was deleted; replay stops and the files are
//	            removed.
//
// Decoding is strict and canonical: unknown kinds, trailing payload bytes,
// and non-minimal varints are all rejected (enforced by re-encoding each
// decoded record and comparing bytes), so `encode(decode(prefix)) ==
// prefix` holds for every valid prefix — FuzzWALDecode pins it.
//
// # Torn tails
//
// A crash can leave a partially written final record (and, under the
// weaker fsync policies, drop a suffix of records). DecodePrefix therefore
// recovers the longest valid prefix: decoding stops at the first frame
// that is short, over-long, CRC-mismatched, or non-canonical, and returns
// the byte offset where the log is to be truncated. Everything before that
// point is exact; everything after is discarded. OpenExisting performs the
// truncation so the next append continues from a clean boundary.
//
// # Fsync policies
//
// SyncAlways fsyncs after every append — an acked batch survives a kernel
// panic. SyncInterval batches fsyncs on a background ticker (every 100ms)
// — an ack may precede durability by up to one interval.
// SyncNever leaves flushing to the OS. Lifecycle records (config epochs,
// deletes) are always fsynced regardless of policy: tenant existence is
// never allowed to race a crash.
//
// # Snapshots
//
// A snapshot is deliberately tiny — {epoch, steps, synced log offset, seq
// watermarks} — because replay *is* the state transfer. It is
// written atomically (temp file + rename) beside the log every
// snapshot-every steps (forcing an fsync first, so the recorded offset is
// durable) and on compaction. Recovery uses it as a tripwire, not a fast
// path: a log whose valid prefix is shorter than the last snapshot's
// synced offset has lost acked durable batches, and recovery fails loudly
// instead of silently serving a shorter history.
//
// # Compaction
//
// Reset opens a new config epoch, after which no earlier record can ever
// be replayed — so the frontend compacts by atomically rewriting the log
// to a single fresh config record (Store.Compact: temp file + fsync +
// rename). Seq watermarks survive compaction via the snapshot written in
// the same breath. Batches within a live epoch are never dropped; that is
// exactly the byte-identical-recovery guarantee.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"topkmon/topk"
)

// Errors returned by the package.
var (
	ErrLogClosed = errors.New("wal: log is closed")
	ErrLostData  = errors.New("wal: log lost durable data (valid prefix shorter than last snapshot)")
)

// Policy selects when appends reach stable storage.
type Policy int

const (
	// SyncAlways fsyncs after every append.
	SyncAlways Policy = iota
	// SyncInterval fsyncs on the store's background ticker.
	SyncInterval
	// SyncNever never fsyncs explicitly (the OS flushes eventually).
	SyncNever
)

// ParsePolicy parses "always", "interval", or "never".
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always|interval|never)", s)
}

func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Kind discriminates record payloads.
type Kind byte

const (
	// KindConfig opens a config epoch (tenant create or reset).
	KindConfig Kind = 1
	// KindBatch is one accepted update batch == one committed step.
	KindBatch Kind = 2
	// KindDelete marks the tenant deleted.
	KindDelete Kind = 3
)

// frameHeader is the fixed per-record framing overhead.
const frameHeader = 8

// MaxPayload bounds a record payload; a length prefix beyond it is treated
// as tail corruption rather than an allocation request.
const MaxPayload = 1 << 24

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one decoded log entry. Which fields are meaningful depends on
// Kind (see the package documentation for the exact payload layouts).
type Record struct {
	Kind   Kind
	Epoch  uint64        // all kinds: the config epoch this record belongs to
	Seed   uint64        // config: the seed recovery must Reset to
	Config []byte        // config: opaque tenant-config bytes (JSON)
	Step   uint64        // batch: the 1-based step this batch committed
	Client string        // batch: idempotency client id ("" = anonymous)
	Seq    uint64        // batch: idempotency sequence number (0 = none)
	Batch  []topk.Update // batch: the accepted updates

	// End is the file offset just past this record's frame, filled in by
	// DecodePrefix — the truncation point that keeps this record and drops
	// everything after it.
	End int64
}

// appendPayload appends r's canonical payload encoding to dst.
func appendPayload(dst []byte, r *Record) []byte {
	dst = append(dst, byte(r.Kind))
	dst = binary.AppendUvarint(dst, r.Epoch)
	switch r.Kind {
	case KindConfig:
		dst = binary.AppendUvarint(dst, r.Seed)
		dst = binary.AppendUvarint(dst, uint64(len(r.Config)))
		dst = append(dst, r.Config...)
	case KindBatch:
		dst = binary.AppendUvarint(dst, r.Step)
		dst = binary.AppendUvarint(dst, uint64(len(r.Client)))
		dst = append(dst, r.Client...)
		dst = binary.AppendUvarint(dst, r.Seq)
		dst = binary.AppendUvarint(dst, uint64(len(r.Batch)))
		for _, u := range r.Batch {
			dst = binary.AppendUvarint(dst, uint64(u.Node))
			dst = binary.AppendUvarint(dst, uint64(u.Value))
		}
	case KindDelete:
		// epoch only
	}
	return dst
}

// AppendFrame appends r's full frame (length, CRC, payload) to dst.
func AppendFrame(dst []byte, r *Record) []byte {
	head := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = appendPayload(dst, r)
	payload := dst[head+frameHeader:]
	binary.LittleEndian.PutUint32(dst[head:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[head+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// uvarint reads one minimally-encoded uvarint; non-minimal encodings are
// legal for binary.Uvarint but would break the canonical round-trip, so
// the re-encode check in decodePayload rejects them.
func uvarint(p []byte) (uint64, int, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, errors.New("wal: truncated varint")
	}
	return v, n, nil
}

// decodePayload strictly parses one payload. Any structural problem —
// unknown kind, short field, trailing bytes, value overflow — is an error,
// which DecodePrefix treats as tail corruption.
func decodePayload(p []byte) (Record, error) {
	var r Record
	if len(p) < 1 {
		return r, errors.New("wal: empty payload")
	}
	r.Kind = Kind(p[0])
	p = p[1:]
	epoch, n, err := uvarint(p)
	if err != nil {
		return r, err
	}
	r.Epoch = epoch
	p = p[n:]
	switch r.Kind {
	case KindConfig:
		if r.Seed, n, err = uvarint(p); err != nil {
			return r, err
		}
		p = p[n:]
		clen, n, err := uvarint(p)
		if err != nil {
			return r, err
		}
		p = p[n:]
		if uint64(len(p)) < clen {
			return r, errors.New("wal: truncated config bytes")
		}
		r.Config = append([]byte(nil), p[:clen]...)
		p = p[clen:]
	case KindBatch:
		if r.Step, n, err = uvarint(p); err != nil {
			return r, err
		}
		p = p[n:]
		clen, n, err := uvarint(p)
		if err != nil {
			return r, err
		}
		p = p[n:]
		if uint64(len(p)) < clen {
			return r, errors.New("wal: truncated client id")
		}
		r.Client = string(p[:clen])
		p = p[clen:]
		if r.Seq, n, err = uvarint(p); err != nil {
			return r, err
		}
		p = p[n:]
		count, n, err := uvarint(p)
		if err != nil {
			return r, err
		}
		p = p[n:]
		if count > MaxPayload/2 {
			return r, errors.New("wal: implausible batch count")
		}
		r.Batch = make([]topk.Update, 0, count)
		for i := uint64(0); i < count; i++ {
			node, n, err := uvarint(p)
			if err != nil {
				return r, err
			}
			p = p[n:]
			value, n, err := uvarint(p)
			if err != nil {
				return r, err
			}
			p = p[n:]
			if node > 1<<31 || value > 1<<62 {
				return r, errors.New("wal: update out of encodable range")
			}
			r.Batch = append(r.Batch, topk.Update{Node: int(node), Value: int64(value)})
		}
	case KindDelete:
		// epoch only
	default:
		return r, fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	if len(p) != 0 {
		return r, errors.New("wal: trailing payload bytes")
	}
	return r, nil
}

// DecodePrefix decodes the longest valid prefix of data and returns the
// records plus the prefix length in bytes — the clean truncation point.
// The first frame that is short, over-long, CRC-mismatched, structurally
// invalid, or non-canonical (its re-encoding differs from the stored
// bytes) ends the prefix; it and everything after it are torn tail. The
// function never fails and never panics: arbitrary input yields some valid
// (possibly empty) prefix.
func DecodePrefix(data []byte) ([]Record, int64) {
	var recs []Record
	var scratch []byte
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) < frameHeader {
			return recs, off
		}
		plen := binary.LittleEndian.Uint32(rest)
		if plen == 0 || plen > MaxPayload {
			return recs, off
		}
		if uint64(len(rest)) < frameHeader+uint64(plen) {
			return recs, off
		}
		payload := rest[frameHeader : frameHeader+plen]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			return recs, off
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return recs, off
		}
		// Canonical-form check: a payload that decodes but does not
		// re-encode to the same bytes (non-minimal varint, for instance)
		// would break the round-trip property, so it is corruption too.
		scratch = appendPayload(scratch[:0], &rec)
		if string(scratch) != string(payload) {
			return recs, off
		}
		off += frameHeader + int64(plen)
		rec.End = off
		recs = append(recs, rec)
	}
}

// Snapshot is the tiny durable summary written beside a log: enough to
// detect a log that lost acked data and to carry seq watermarks across
// compaction. It is NOT engine state — recovery always replays the log.
type Snapshot struct {
	Epoch      uint64            `json:"epoch"`
	Steps      int64             `json:"steps"`
	Offset     int64             `json:"offset"` // synced log bytes the snapshot vouches for
	Watermarks map[string]uint64 `json:"watermarks,omitempty"`
}

// Log is one tenant's append-only record file. Appends are serialized by
// an internal mutex; a failed write latches the log broken (further
// appends refuse) so a torn frame stays at the tail where recovery can
// truncate it, instead of being buried under later records.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	policy Policy
	buf    []byte
	size   int64 // bytes appended (valid frames only)
	synced int64 // bytes known durable
	dirty  bool
	broken error
	closed bool
}

// Append encodes r, writes it as one frame, and (under SyncAlways) fsyncs.
// It returns the log size after the append — r's End offset.
func (l *Log) Append(r *Record) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrLogClosed
	}
	if l.broken != nil {
		return 0, fmt.Errorf("wal: log %s is broken by an earlier write error: %w", l.path, l.broken)
	}
	l.buf = AppendFrame(l.buf[:0], r)
	if _, err := l.f.Write(l.buf); err != nil {
		l.broken = err
		return 0, fmt.Errorf("wal: append %s: %w", l.path, err)
	}
	l.size += int64(len(l.buf))
	l.dirty = true
	if l.policy == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return l.size, nil
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.broken = err
		return fmt.Errorf("wal: fsync %s: %w", l.path, err)
	}
	l.dirty = false
	l.synced = l.size
	return nil
}

// Sync forces everything appended so far to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	return l.syncLocked()
}

// Size returns the log's current length in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// SyncedOffset returns the bytes known to be on stable storage.
func (l *Log) SyncedOffset() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// Close fsyncs outstanding appends and closes the file. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	serr := error(nil)
	if l.broken == nil {
		serr = l.syncLocked()
	}
	cerr := l.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Options configures a Store.
type Options struct {
	// Dir is the data directory; one <tenant>.wal (+ optional
	// <tenant>.snap) pair per tenant.
	Dir string
	// Policy is the fsync policy for batch appends (lifecycle records are
	// always synced).
	Policy Policy
	// SnapshotEvery is the number of committed steps between durable
	// snapshots (0 = 1024).
	SnapshotEvery int
}

// Store owns a data directory of per-tenant logs: creation, recovery
// scanning, compaction, snapshots, and the SyncInterval background
// flusher.
type Store struct {
	dir    string
	policy Policy
	every  int

	mu     sync.Mutex
	logs   map[string]*Log
	closed bool

	stop chan struct{}
	done chan struct{}
}

// Open creates the data directory if needed and returns a Store.
func Open(o Options) (*Store, error) {
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 1024
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	s := &Store{dir: o.Dir, policy: o.Policy, every: o.SnapshotEvery, logs: make(map[string]*Log)}
	if o.Policy == SyncInterval {
		s.stop = make(chan struct{})
		s.done = make(chan struct{})
		go s.flusher()
	}
	return s, nil
}

// syncInterval is the SyncInterval policy's flush period.
const syncInterval = 100 * time.Millisecond

// flusher fsyncs every dirty log each tick until Close.
func (s *Store) flusher() {
	defer close(s.done)
	t := time.NewTicker(syncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			logs := make([]*Log, 0, len(s.logs))
			for _, l := range s.logs {
				logs = append(logs, l)
			}
			s.mu.Unlock()
			for _, l := range logs {
				l.Sync() // a closed/broken log reports its own error to appenders
			}
		}
	}
}

// SnapshotEvery returns the configured steps-between-snapshots.
func (s *Store) SnapshotEvery() int { return s.every }

func (s *Store) walPath(tenant string) string {
	return filepath.Join(s.dir, tenant+".wal")
}

func (s *Store) snapPath(tenant string) string {
	return filepath.Join(s.dir, tenant+".snap")
}

// List returns the tenant names with a log file, sorted.
func (s *Store) List() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range ents {
		if n, ok := strings.CutSuffix(e.Name(), ".wal"); ok && !e.IsDir() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

func (s *Store) register(tenant string, l *Log) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrLogClosed
	}
	s.logs[tenant] = l
	return nil
}

// Create opens a fresh log for a new tenant, refusing to clobber an
// existing file: a leftover log for the same name is recovery's business,
// never silently truncated.
func (s *Store) Create(tenant string) (*Log, error) {
	f, err := os.OpenFile(s.walPath(tenant), os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{f: f, path: s.walPath(tenant), policy: s.policy}
	if err := s.register(tenant, l); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// OpenExisting reads a tenant's log, decodes the longest valid prefix,
// truncates the torn tail, cross-checks the snapshot (a valid prefix
// shorter than the snapshot's synced offset means acked durable data was
// lost — ErrLostData), and reopens the file for appending.
func (s *Store) OpenExisting(tenant string) (*Log, []Record, *Snapshot, error) {
	data, err := os.ReadFile(s.walPath(tenant))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wal: %w", err)
	}
	recs, valid := DecodePrefix(data)
	snap, err := s.ReadSnapshot(tenant)
	if err != nil {
		return nil, nil, nil, err
	}
	if snap != nil && snap.Offset > valid {
		return nil, nil, nil, fmt.Errorf("%w: tenant %s: valid prefix %d < snapshot offset %d",
			ErrLostData, tenant, valid, snap.Offset)
	}
	f, err := os.OpenFile(s.walPath(tenant), os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wal: %w", err)
	}
	if valid < int64(len(data)) {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", tenant, err)
		}
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{f: f, path: s.walPath(tenant), policy: s.policy, size: valid, synced: valid}
	if err := s.register(tenant, l); err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	return l, recs, snap, nil
}

// Compact atomically replaces a tenant's log with a single fresh record
// (temp file + fsync + rename) and returns the new log, closing and
// superseding the old one. Used when a reset opens a new config epoch and
// every earlier record becomes unreplayable.
func (s *Store) Compact(tenant string, rec *Record) (*Log, error) {
	s.mu.Lock()
	old := s.logs[tenant]
	s.mu.Unlock()
	if old != nil {
		old.Close()
	}
	tmp := s.walPath(tenant) + ".tmp"
	frame := AppendFrame(nil, rec)
	if err := writeFileSync(tmp, frame); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, s.walPath(tenant)); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	syncDir(s.dir)
	f, err := os.OpenFile(s.walPath(tenant), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{f: f, path: s.walPath(tenant), policy: s.policy, size: int64(len(frame)), synced: int64(len(frame))}
	if err := s.register(tenant, l); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Remove deletes a tenant's log and snapshot files and drops its log from
// the flusher set.
func (s *Store) Remove(tenant string) error {
	s.mu.Lock()
	l := s.logs[tenant]
	delete(s.logs, tenant)
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	err := os.Remove(s.walPath(tenant))
	if rerr := os.Remove(s.snapPath(tenant)); err == nil && rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
		err = rerr
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(s.dir)
	return nil
}

// WriteSnapshot atomically writes a tenant's snapshot sidecar.
func (s *Store) WriteSnapshot(tenant string, snap *Snapshot) error {
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	tmp := s.snapPath(tenant) + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.snapPath(tenant)); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(s.dir)
	return nil
}

// ReadSnapshot returns a tenant's snapshot, nil when none exists. A
// snapshot that exists but cannot be parsed is an error: it is the
// lost-data tripwire, so recovery must not shrug it off.
func (s *Store) ReadSnapshot(tenant string) (*Snapshot, error) {
	data, err := os.ReadFile(s.snapPath(tenant))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("wal: corrupt snapshot for tenant %s: %w", tenant, err)
	}
	return &snap, nil
}

// Close stops the flusher and closes every open log (fsyncing each).
// Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	logs := make([]*Log, 0, len(s.logs))
	for _, l := range s.logs {
		logs = append(logs, l)
	}
	s.logs = make(map[string]*Log)
	s.mu.Unlock()
	if s.stop != nil {
		close(s.stop)
		<-s.done
	}
	var err error
	for _, l := range logs {
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// syncDir best-effort fsyncs a directory so renames/removals are durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
