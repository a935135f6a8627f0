package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"watchdog/internal/report"
)

// The persistent result store has two layers in front of the
// simulator:
//
//   - the server's flight Group, which keeps every completed flight
//     body in memory for the server's life;
//   - an optional disk layer, content-addressed by the normalized
//     flight key under the report schema version. A flight asks it
//     before computing; entries are written behind flight completion
//     and checksum-verified on read: a corrupt or stale-schema entry is
//     evicted and recomputed, never served. A restarted server pointed
//     at the same directory replays prior results byte-identically
//     without re-simulating.
//
// The flight key is already the canonical identity of a computation
// (SimFlightKey normalizes every default), and the simulations are
// deterministic, so replayed bytes are indistinguishable from fresh
// ones — the same property the in-memory coalescing layer has always
// leaned on, extended across restarts.

// storeEnvelope is the on-disk format of one entry: the schema
// version the body was produced under, the flight key it answers, and
// a checksum over the exact response bytes.
type storeEnvelope struct {
	Schema int    `json:"schema"`
	Key    string `json:"key"`
	Sum    string `json:"sum"` // sha256 of Body, hex
	Body   []byte `json:"body"`
}

// Store is the disk-backed content-addressed result layer. Entries
// live one per file, named by the SHA-256 of their flight key, so a
// key maps to exactly one slot regardless of key length or
// characters. Safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64

	// evictMu serializes the size-budget sweeps (reads/writes of
	// individual entries are already atomic via rename).
	evictMu sync.Mutex

	diskHits  atomic.Int64
	misses    atomic.Int64
	writes    atomic.Int64
	corrupt   atomic.Int64
	evictions atomic.Int64
	bytes     atomic.Int64
}

// OpenStore opens (creating if needed) a result store rooted at dir,
// bounded at maxMB mebibytes of entries (minimum 1). Existing entries
// are kept — that is the point — and their total size is accounted.
func OpenStore(dir string, maxMB int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if maxMB < 1 {
		maxMB = 1
	}
	st := &Store{dir: dir, maxBytes: int64(maxMB) << 20}
	entries, err := st.entries()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var total int64
	for _, e := range entries {
		total += e.size
	}
	st.bytes.Store(total)
	return st, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// path is the entry file for one flight key.
func (st *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(st.dir, hex.EncodeToString(sum[:])+".json")
}

// Read returns the stored body for key, verifying the envelope: a
// missing entry is a plain miss; an unreadable, wrong-schema,
// wrong-key, or checksum-failing entry is evicted from disk and
// reported as a miss — a corrupt result must be recomputed, never
// served.
func (st *Store) Read(key string) ([]byte, bool) {
	p := st.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		st.misses.Add(1)
		return nil, false
	}
	var env storeEnvelope
	ok := json.Unmarshal(data, &env) == nil &&
		env.Schema == report.Version &&
		env.Key == key &&
		checksum(env.Body) == env.Sum
	if !ok {
		st.corrupt.Add(1)
		if fi, err := os.Stat(p); err == nil {
			st.bytes.Add(-fi.Size())
		}
		os.Remove(p)
		st.misses.Add(1)
		return nil, false
	}
	st.diskHits.Add(1)
	// Touch the entry so the size-budget eviction (oldest mtime first)
	// treats it as recently used.
	now := time.Now()
	os.Chtimes(p, now, now)
	return env.Body, true
}

// Write persists one completed body under key, then enforces the size
// budget by evicting the least recently touched entries (never the
// one just written). Errors are swallowed: the store is a cache — a
// full or broken disk degrades to recomputation, not to failure.
func (st *Store) Write(key string, body []byte) {
	env := storeEnvelope{
		Schema: report.Version,
		Key:    key,
		Sum:    checksum(body),
		Body:   body,
	}
	data, err := json.Marshal(&env)
	if err != nil {
		return
	}
	p := st.path(key)
	if fi, err := os.Stat(p); err == nil {
		st.bytes.Add(-fi.Size()) // overwriting: drop the old size
	}
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return
	}
	st.writes.Add(1)
	st.bytes.Add(int64(len(data)))
	st.enforceBudget(p)
}

// storeEntryInfo is one on-disk entry during a budget sweep.
type storeEntryInfo struct {
	path  string
	size  int64
	mtime int64
}

// entries lists the store's entry files.
func (st *Store) entries() ([]storeEntryInfo, error) {
	dirents, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var out []storeEntryInfo
	for _, de := range dirents {
		if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		out = append(out, storeEntryInfo{
			path:  filepath.Join(st.dir, de.Name()),
			size:  fi.Size(),
			mtime: fi.ModTime().UnixNano(),
		})
	}
	return out, nil
}

// enforceBudget evicts oldest-touched entries until the store fits
// its byte budget, sparing the just-written file.
func (st *Store) enforceBudget(justWrote string) {
	if st.bytes.Load() <= st.maxBytes {
		return
	}
	st.evictMu.Lock()
	defer st.evictMu.Unlock()
	entries, err := st.entries()
	if err != nil {
		return
	}
	var total int64
	for _, e := range entries {
		total += e.size
	}
	st.bytes.Store(total)
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime < entries[j].mtime })
	for _, e := range entries {
		if total <= st.maxBytes {
			break
		}
		if e.path == justWrote {
			continue
		}
		if os.Remove(e.path) == nil {
			total -= e.size
			st.evictions.Add(1)
		}
	}
	st.bytes.Store(total)
}

// StoreMetrics is the store's slice of the /metrics document (both
// layers; zero-valued when the server runs without a disk store).
type StoreMetrics struct {
	// CacheEntries counts the bodies kept in memory, one per distinct
	// flight key answered; CacheHits counts replays answered from them.
	CacheEntries int   `json:"cache_entries" prom:"watchdog_serve_result_cache_entries,gauge" help:"Completed flight bodies kept in memory."`
	CacheHits    int64 `json:"cache_hits" prom:"watchdog_serve_result_cache_hits_total,counter" help:"Replays answered from memory."`
	// Disk layer counters (all zero without -store-dir).
	DiskHits       int64 `json:"disk_hits,omitempty" prom:"watchdog_serve_store_hits_total,counter" help:"Replays answered from the disk store (checksum-verified)."`
	DiskMisses     int64 `json:"disk_misses,omitempty" prom:"watchdog_serve_store_misses_total,counter" help:"Disk store lookups that found no servable entry (corrupt ones included)."`
	DiskWrites     int64 `json:"disk_writes,omitempty" prom:"watchdog_serve_store_writes_total,counter" help:"Completed bodies persisted to the disk store."`
	DiskBytes      int64 `json:"disk_bytes,omitempty" prom:"watchdog_serve_store_bytes,gauge" help:"Bytes of entries in the disk store."`
	DiskEvictions  int64 `json:"disk_evictions,omitempty" prom:"watchdog_serve_store_evictions_total,counter" help:"Disk entries evicted by the size budget."`
	CorruptEvicted int64 `json:"corrupt_evicted,omitempty" prom:"watchdog_serve_store_corrupt_evicted_total,counter" help:"Disk entries that failed verification and were evicted, not served."`
}

// storeMetrics assembles the two layers' counters.
func (s *Server) storeMetrics() StoreMetrics {
	fs := s.flights.Stats()
	m := StoreMetrics{CacheEntries: fs.Kept, CacheHits: fs.Hits}
	if st := s.cfg.Store; st != nil {
		m.DiskHits = st.diskHits.Load()
		m.DiskMisses = st.misses.Load()
		m.DiskWrites = st.writes.Load()
		m.DiskBytes = st.bytes.Load()
		m.DiskEvictions = st.evictions.Load()
		m.CorruptEvicted = st.corrupt.Load()
	}
	return m
}

// checksum is the store's content hash (SHA-256, hex).
func checksum(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}
