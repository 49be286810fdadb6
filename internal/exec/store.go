package exec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// The variant store is the compiled-variant cache behind the bytecode
// engine. Every (program, plan) variant the pipeline produces is a concrete
// source text — core.Apply memoizes plan keys onto generated sources, so
// hashing the variant source is a canonical superset of keying by plan key:
// two plans that alias onto the same generated code (a knob no-op) share
// one compiled artifact, and the same variant reached from different
// scenarios, tuner candidates, or sweep shards compiles exactly once per
// store.
//
// A store is an injected interface scoped to a session, never a package
// global: concurrent sweeps in one process keep independent stats, and an
// on-disk implementation carries variant knowledge across processes.

// Key content-addresses a variant: the sha256 of its source bytes.
type Key [sha256.Size]byte

// KeyOf returns the content key of a variant source.
func KeyOf(src string) Key { return sha256.Sum256([]byte(src)) }

// String renders the key as lowercase hex (the on-disk entry name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// StoreStats counts variant-store traffic.
type StoreStats struct {
	// Compiled is the number of variants new to the store: lookups that
	// found neither a memory entry nor a valid disk entry and had to
	// compile from scratch.
	Compiled int64 `json:"compiled"`
	// Hits is the number of lookups served by an in-memory artifact.
	Hits int64 `json:"hits"`
	// DiskHits is the number of lookups served from a checksum-valid
	// on-disk entry: the variant was known from an earlier process, so it
	// is re-lowered in memory but does not count as new knowledge.
	DiskHits int64 `json:"disk_hits"`
	// Corrupt is the number of on-disk entries rejected by the checksum
	// (truncated, bit-flipped, or otherwise not matching their content
	// key) — each one is recompiled from the requested source and the
	// entry rewritten.
	Corrupt int64 `json:"corrupt"`
	// LostWrites is the number of durable writes — variant entries and
	// verified markers — that failed (a full, read-only or vanished
	// directory). The query they served was answered from memory all the
	// same; a later process recompiles or re-verifies what they would have
	// carried.
	LostWrites int64 `json:"lost_writes"`
}

// Sub returns the stats delta since an earlier snapshot.
func (s StoreStats) Sub(earlier StoreStats) StoreStats {
	return StoreStats{
		Compiled:   s.Compiled - earlier.Compiled,
		Hits:       s.Hits - earlier.Hits,
		DiskHits:   s.DiskHits - earlier.DiskHits,
		Corrupt:    s.Corrupt - earlier.Corrupt,
		LostWrites: s.LostWrites - earlier.LostWrites,
	}
}

// VariantStore is the pluggable compiled-variant cache: a content-addressed
// store of program variants keyed by the sha256 of their source, and the
// ledger of the variants that passed static verification, so a warm hit
// (same process, or a shared on-disk store in a later process) never pays
// for re-verification. Implementations must be concurrency-safe and
// single-flight — concurrent lookups of the same new variant block on one
// compile instead of duplicating it.
type VariantStore interface {
	// Get returns the compiled program for the variant source, compiling
	// it at most once per distinct variant. A lookup served by existing
	// store knowledge (a memory entry, or a checksum-valid disk entry)
	// counts as a hit rather than a compile.
	Get(src string) (*Program, error)
	// Put records the variant durably (where the store has a durable
	// layer) without compiling it — one process warms a shared store with
	// variants other processes will need.
	Put(src string) error
	// Stats snapshots the store's traffic counters.
	Stats() StoreStats
	// MarkVerified records that the keyed variant verified clean.
	MarkVerified(key Key)
	// Verified reports whether the keyed variant is known clean.
	Verified(key Key) bool
}

// storeEntry is one variant's single-flight slot.
type storeEntry struct {
	once sync.Once
	prog *Program
	err  error
}

// MemStore is the in-memory variant store: compiled artifacts keyed by
// content, single-flight, scoped to the instance. A cache hit returns the
// identical *Program pointer.
type MemStore struct {
	mu       sync.Mutex
	entries  map[Key]*storeEntry
	verified map[Key]bool
	stats    StoreStats
}

// NewMemStore returns an empty in-memory variant store.
func NewMemStore() *MemStore {
	return &MemStore{entries: map[Key]*storeEntry{}, verified: map[Key]bool{}}
}

// MarkVerified implements VariantStore (in memory only).
func (m *MemStore) MarkVerified(key Key) {
	m.mu.Lock()
	m.verified[key] = true
	m.mu.Unlock()
}

// Verified implements VariantStore.
func (m *MemStore) Verified(key Key) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.verified[key]
}

// lookup returns the entry for key, creating it when absent; existed
// reports whether the entry was already present. Stats are the caller's
// business — DiskStore layers its own accounting over the same entries.
func (m *MemStore) lookup(key Key) (e *storeEntry, existed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, existed = m.entries[key]
	if !existed {
		e = &storeEntry{}
		m.entries[key] = e
	}
	return e, existed
}

func (m *MemStore) bump(f func(*StoreStats)) {
	m.mu.Lock()
	f(&m.stats)
	m.mu.Unlock()
}

// Get implements VariantStore.
func (m *MemStore) Get(src string) (*Program, error) {
	e, existed := m.lookup(KeyOf(src))
	if existed {
		m.bump(func(s *StoreStats) { s.Hits++ })
	} else {
		m.bump(func(s *StoreStats) { s.Compiled++ })
	}
	e.once.Do(func() { e.prog, e.err = CompileSource(src) })
	return e.prog, e.err
}

// Put implements VariantStore. A memory store's only knowledge is the
// compiled artifact itself, so warming without compiling is a no-op.
func (m *MemStore) Put(string) error { return nil }

// Stats implements VariantStore.
func (m *MemStore) Stats() StoreStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// DiskStore is the on-disk content-addressed variant store, layered as
// disk-behind-memory: compiled artifacts live in a per-instance MemStore,
// and every variant's source is persisted under <dir>/<sha256-hex>.f90 so
// variant knowledge survives process restarts and can be shared across
// concurrent processes through a common directory. Entries are checksummed on
// read — the file name is the content key, so a truncated or bit-flipped
// entry can never be trusted: it is recompiled from the requested source
// and rewritten.
type DiskStore struct {
	dir string
	mem *MemStore

	mu    sync.Mutex
	stats StoreStats
}

// NewDiskStore opens (creating as needed) the on-disk variant store rooted
// at dir, which must be named.
func NewDiskStore(dir string) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("exec: variant store dir not named")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exec: variant store dir: %w", err)
	}
	return &DiskStore{dir: dir, mem: NewMemStore()}, nil
}

// entryPath is the content-addressed file of a key.
func (d *DiskStore) entryPath(key Key) string {
	return filepath.Join(d.dir, key.String()+".f90")
}

// readValid reads the disk entry for key and verifies its checksum: the
// entry is valid only when the sha256 of its content equals the key it is
// filed under. It returns whether a valid entry was found; corrupt reports
// an entry that existed but failed the checksum.
func (d *DiskStore) readValid(key Key) (valid, corrupt bool) {
	b, err := os.ReadFile(d.entryPath(key))
	if err != nil {
		return false, false // no entry (or unreadable — treated as absent)
	}
	if sha256.Sum256(b) != key {
		return false, true
	}
	return true, false
}

// write persists the variant source under its content key, atomically
// (write to a temp file, then rename), so a concurrent reader never sees a
// half-written entry; a torn write from a crash fails the checksum instead.
func (d *DiskStore) write(key Key, src string) error {
	tmp, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, werr := tmp.WriteString(src)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(name)
		return werr
	}
	return os.Rename(name, d.entryPath(key))
}

// Get implements VariantStore: memory first, then disk, then a cold
// compile that writes the entry through to both layers.
func (d *DiskStore) Get(src string) (*Program, error) {
	key := KeyOf(src)
	e, existed := d.mem.lookup(key)
	if existed {
		d.mu.Lock()
		d.stats.Hits++
		d.mu.Unlock()
		e.once.Do(func() { e.prog, e.err = CompileSource(src) })
		return e.prog, e.err
	}
	valid, corrupt := d.readValid(key)
	d.mu.Lock()
	if valid {
		d.stats.DiskHits++
	} else {
		d.stats.Compiled++
		if corrupt {
			d.stats.Corrupt++
		}
	}
	d.mu.Unlock()
	e.once.Do(func() { e.prog, e.err = CompileSource(src) })
	// Write-through on new knowledge (and rewrite over a corrupt entry);
	// a variant that does not compile is not knowledge worth persisting.
	// A failed write loses the durable copy, not the answer.
	if !valid && e.err == nil {
		if werr := d.write(key, src); werr != nil {
			d.lostWrite()
		}
	}
	return e.prog, e.err
}

// lostWrite counts a durable write that failed.
func (d *DiskStore) lostWrite() {
	d.mu.Lock()
	d.stats.LostWrites++
	d.mu.Unlock()
}

// Put implements VariantStore: the source is persisted under its content
// key without compiling, warming the durable layer for other workers. An
// existing valid entry is left untouched; a corrupt one is rewritten.
func (d *DiskStore) Put(src string) error {
	key := KeyOf(src)
	if valid, _ := d.readValid(key); valid {
		return nil
	}
	return d.write(key, src)
}

// verifiedPath is the verified-hash marker of a key: an empty side file
// whose name is the content key, so its mere (atomic-rename) existence
// asserts "the variant with this hash verified clean".
func (d *DiskStore) verifiedPath(key Key) string {
	return filepath.Join(d.dir, key.String()+".ok")
}

// MarkVerified implements VariantStore: the key is recorded in memory and
// as a durable side marker, so a later process sharing the directory skips
// re-verification. A marker-write failure is only counted (LostWrites) —
// the ledger is an optimization, never a correctness dependency.
func (d *DiskStore) MarkVerified(key Key) {
	d.mem.MarkVerified(key)
	tmp, err := os.CreateTemp(d.dir, ".tmp-ok-*")
	if err != nil {
		d.lostWrite()
		return
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		d.lostWrite()
		return
	}
	if err := os.Rename(name, d.verifiedPath(key)); err != nil {
		os.Remove(name)
		d.lostWrite()
	}
}

// Verified implements VariantStore: memory first, then the durable marker
// (hoisted into memory on a hit).
func (d *DiskStore) Verified(key Key) bool {
	if d.mem.Verified(key) {
		return true
	}
	if _, err := os.Stat(d.verifiedPath(key)); err != nil {
		return false
	}
	d.mem.MarkVerified(key)
	return true
}

// Stats implements VariantStore.
func (d *DiskStore) Stats() StoreStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
