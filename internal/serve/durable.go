package serve

import (
	"encoding/json"
	"errors"
	"fmt"

	"topkmon/internal/wal"
	"topkmon/topk"
)

// Durability configures the write-ahead batch log under the tenant pool.
// The zero value (empty Dir) keeps the server volatile — exactly the
// pre-durability behavior. With a Dir set, every accepted batch is
// journaled BEFORE its step commits, tenant lifecycle ops (create, reset,
// delete) are logged as config-epoch records, and a booting server
// replays every tenant bit for bit (outputs, cost counters, fault coins —
// TestRecoveryEquivalence) via build(config) + Reset(seed) + batch replay.
type Durability struct {
	// Dir is the data directory (one <tenant>.wal per tenant).
	Dir string
	// Fsync is the batch-append policy: "always" (default), "interval",
	// or "never". Lifecycle records are always fsynced.
	Fsync string
	// SnapshotEvery is the number of committed steps between durable
	// snapshot sidecars (0 = 1024). A snapshot forces an fsync and records
	// the synced offset + seq watermarks; recovery fails loudly if the log
	// has lost data a snapshot vouched for.
	SnapshotEvery int
}

// openStore builds the wal.Store for a non-zero Durability config.
func (d Durability) openStore() (*wal.Store, error) {
	if d.Dir == "" {
		return nil, nil
	}
	fsync := d.Fsync
	if fsync == "" {
		fsync = "always"
	}
	policy, err := wal.ParsePolicy(fsync)
	if err != nil {
		return nil, err
	}
	return wal.Open(wal.Options{
		Dir:           d.Dir,
		Policy:        policy,
		SnapshotEvery: d.SnapshotEvery,
	})
}

// journalCreate writes (and fsyncs) the config-epoch record that makes a
// fresh tenant durable. Called by Pool.Create after the tenant won the
// map insert; on error the caller rolls the insert back.
func (t *Tenant) journalCreate() error {
	cfgJSON, err := json.Marshal(t.Cfg)
	if err != nil {
		return err
	}
	log, err := t.store.Create(t.Name)
	if err != nil {
		return err
	}
	rec := wal.Record{Kind: wal.KindConfig, Epoch: 1, Seed: t.seed, Config: cfgJSON}
	if _, err := log.Append(&rec); err != nil {
		log.Close()
		t.store.Remove(t.Name)
		return err
	}
	if err := log.Sync(); err != nil { // lifecycle records are always durable
		log.Close()
		t.store.Remove(t.Name)
		return err
	}
	t.log = log
	t.epoch = 1
	return nil
}

// CommitBatch is the durable ingest path: dedup against the per-client
// seq watermark, validate, journal, THEN commit the step. It returns the
// step count after the commit and whether the batch was a duplicate retry
// (seq already committed — acknowledged without committing a second
// step). seq 0 means "no idempotency requested" and is never deduped.
//
// The tenant mutex serializes every committed mutation so journal order
// equals commit order; a crash between journal and commit re-commits the
// batch on replay, and the client's retry of the un-acked seq is then
// absorbed by the watermark — exactly once either way.
func (t *Tenant) CommitBatch(batch []topk.Update, client string, seq uint64) (step int64, dup bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq > 0 && t.seqs[client] >= seq {
		return t.Mon.Steps(), true, nil
	}
	// Validate before journaling: the log must never hold a batch the
	// monitor would reject on replay (this also surfaces ErrClosed for a
	// concurrently deleted tenant before any I/O happens).
	if err := t.Mon.ValidateBatch(batch); err != nil {
		return 0, false, err
	}
	if t.log != nil {
		rec := wal.Record{
			Kind: wal.KindBatch, Epoch: t.epoch, Step: uint64(t.Mon.Steps()) + 1,
			Client: client, Seq: seq, Batch: batch,
		}
		if _, err := t.log.Append(&rec); err != nil {
			return 0, false, err
		}
	}
	if err := t.Mon.UpdateBatch(batch); err != nil {
		// Unreachable in practice: the batch validated and Close/Delete
		// hold t.mu. Surfaced rather than swallowed if it ever happens.
		return 0, false, err
	}
	if seq > 0 {
		if t.seqs == nil {
			t.seqs = make(map[string]uint64)
		}
		t.seqs[client] = seq
	}
	t.maybeSnapshotLocked()
	return t.Mon.Steps(), false, nil
}

// CommitFlush journals and commits a heartbeat step (an empty batch).
func (t *Tenant) CommitFlush() (int64, error) {
	step, _, err := t.CommitBatch(nil, "", 0)
	return step, err
}

// CommitReset rewinds the tenant to seed and — when durable — compacts
// the log: the reset opens a new config epoch, after which no earlier
// record can ever replay, so the log is atomically rewritten to a single
// fresh config record. Seq watermarks survive via the snapshot written in
// the same breath (a retried pre-reset seq is still a duplicate).
func (t *Tenant) CommitReset(seed uint64) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.log != nil {
		cfgJSON, err := json.Marshal(t.Cfg)
		if err != nil {
			return 0, err
		}
		rec := wal.Record{Kind: wal.KindConfig, Epoch: t.epoch + 1, Seed: seed, Config: cfgJSON}
		log, err := t.store.Compact(t.Name, &rec)
		if err != nil {
			return 0, err
		}
		t.log = log
		t.epoch++
		t.writeSnapshotLocked(0)
	}
	if err := t.Mon.Reset(seed); err != nil {
		return 0, err
	}
	t.seed = seed
	t.sinceSnap = 0
	return t.Mon.Steps(), nil
}

// closeDurable journals the tombstone (fsynced), removes the tenant's
// files, and closes the monitor. Called by Pool.Delete outside the pool
// lock; the tenant mutex drains any in-flight commit first.
func (t *Tenant) closeDurable() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.log != nil {
		rec := wal.Record{Kind: wal.KindDelete, Epoch: t.epoch}
		if _, err := t.log.Append(&rec); err == nil {
			t.log.Sync()
		}
		t.store.Remove(t.Name) // closes the log and deletes both files
		t.log = nil
	}
	return t.Mon.Close()
}

// closeQuiesced fsyncs and closes the log, then the monitor — the
// graceful-shutdown path (files stay for the next boot). Takes the tenant
// mutex, so an in-flight commit finishes before anything closes.
func (t *Tenant) closeQuiesced() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.log != nil {
		t.log.Close()
		t.log = nil
	}
	t.Mon.Close()
}

// maybeSnapshotLocked writes a durable snapshot every SnapshotEvery
// committed steps: fsync first (so the recorded offset is really on
// stable storage — a durability point even under fsync=interval/never),
// then the sidecar. Snapshot write failures are deliberately non-fatal:
// the batch itself is already journaled, and the snapshot is a tripwire,
// not the source of truth.
func (t *Tenant) maybeSnapshotLocked() {
	if t.log == nil {
		return
	}
	t.sinceSnap++
	if t.sinceSnap < t.store.SnapshotEvery() {
		return
	}
	t.sinceSnap = 0
	if err := t.log.Sync(); err != nil {
		return
	}
	t.writeSnapshotLocked(t.Mon.Steps())
}

func (t *Tenant) writeSnapshotLocked(steps int64) {
	marks := make(map[string]uint64, len(t.seqs))
	for c, s := range t.seqs {
		marks[c] = s
	}
	t.store.WriteSnapshot(t.Name, &wal.Snapshot{
		Epoch:      t.epoch,
		Steps:      steps,
		Offset:     t.log.SyncedOffset(),
		Watermarks: marks,
	})
}

// recover rebuilds every tenant found in the data directory: decode the
// longest valid log prefix (the store truncates the torn tail), then
// replay — build(config), Reset(seed), UpdateBatch per batch record —
// which the facade's Reset contract makes byte-identical to the
// uninterrupted run. Deleted tenants have their files removed. Any
// structural inconsistency (epoch/step mismatches, lost durable data,
// unbuildable config) fails the boot loudly: recovering LESS than was
// acked must never look like success.
func (p *Pool) recover() error {
	names, err := p.store.List()
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := p.recoverTenant(name); err != nil {
			return fmt.Errorf("serve: recover tenant %s: %w", name, err)
		}
	}
	return nil
}

func (p *Pool) recoverTenant(name string) error {
	log, recs, snap, err := p.store.OpenExisting(name)
	if err != nil {
		return err
	}
	var t *Tenant
	deleted := false
	fail := func(err error) error {
		log.Close()
		if t != nil {
			t.Mon.Close()
		}
		return err
	}
replay:
	for _, rec := range recs {
		switch rec.Kind {
		case wal.KindConfig:
			// First record, or a compacted reset epoch. The logged config
			// is the fully-populated one from creation time — it wins over
			// whatever the server defaults are at boot.
			var cfg Config
			if err := json.Unmarshal(rec.Config, &cfg); err != nil {
				return fail(fmt.Errorf("config record: %w", err))
			}
			if t == nil {
				mon, err := cfg.build()
				if err != nil {
					return fail(fmt.Errorf("rebuild monitor: %w", err))
				}
				t = &Tenant{Name: name, Cfg: cfg, Mon: mon, store: p.store, log: log}
			}
			// Reset(seed) on a fresh monitor is byte-identical to fresh
			// construction (the facade's Reset contract), so one code path
			// serves both creation and reset epochs.
			if err := t.Mon.Reset(rec.Seed); err != nil {
				return fail(err)
			}
			t.seed = rec.Seed
			t.epoch = rec.Epoch
		case wal.KindBatch:
			if t == nil {
				return fail(errors.New("batch record before config record"))
			}
			if rec.Epoch != t.epoch {
				return fail(fmt.Errorf("batch epoch %d != current epoch %d", rec.Epoch, t.epoch))
			}
			if rec.Step != uint64(t.Mon.Steps())+1 {
				return fail(fmt.Errorf("batch step %d != expected %d", rec.Step, t.Mon.Steps()+1))
			}
			if err := t.Mon.UpdateBatch(rec.Batch); err != nil {
				return fail(fmt.Errorf("replay step %d: %w", rec.Step, err))
			}
			if rec.Seq > 0 {
				if t.seqs == nil {
					t.seqs = make(map[string]uint64)
				}
				if t.seqs[rec.Client] < rec.Seq {
					t.seqs[rec.Client] = rec.Seq
				}
			}
		case wal.KindDelete:
			deleted = true
			break replay
		}
	}
	if deleted || t == nil {
		// A tombstoned tenant, or an empty log whose config record never
		// made it: nothing to serve, clean the files up.
		if t != nil {
			t.Mon.Close()
		}
		return p.store.Remove(name)
	}
	if snap != nil {
		if snap.Steps > t.Mon.Steps() && snap.Epoch == t.epoch {
			return fail(fmt.Errorf("replayed %d steps < %d the last snapshot vouched for",
				t.Mon.Steps(), snap.Steps))
		}
		// Watermarks survive compaction only through the snapshot.
		for c, s := range snap.Watermarks {
			if t.seqs == nil {
				t.seqs = make(map[string]uint64)
			}
			if t.seqs[c] < s {
				t.seqs[c] = s
			}
		}
	}
	// Recovered tenants are existing data: they are inserted even when the
	// pool's MaxTenants cap is lower than the directory's tenant count.
	p.mu.Lock()
	p.tenants[name] = t
	p.mu.Unlock()
	return nil
}
