package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// DefaultDiskCacheEntries bounds OpenDiskCache when the caller passes a
// non-positive cap. Each entry is one solved point (a few hundred bytes to a
// few KB of JSON), so the default stays well under typical tmp quotas while
// covering every sweep in the paper several times over.
const DefaultDiskCacheEntries = 1 << 14

// DiskCache is a persistent result store keyed by the canonical (model,
// stack) fingerprint, sitting behind the in-memory LRU (see
// NewCacheWithDisk): a point solved by yesterday's sweep — or by another
// process sharing the directory — is a file read today, not a solve.
//
// Layout: one JSON file per entry named sha256(key).json under the cache
// directory. The file carries the full canonical key alongside the result,
// so a (vanishingly unlikely) digest collision is detected instead of
// replaying the wrong geometry's temperatures. Writes go through a temp
// file + rename, so a crashed process never leaves a torn entry behind.
// Hits refresh the file's mtime, and when the directory exceeds the entry
// cap the oldest-mtime files are evicted — i.e. LRU, at file granularity.
//
// Only successful results are persisted. Failures stay in the in-memory
// tier: an error is often environmental (cancellation, resource pressure)
// and must not poison future runs.
//
// A DiskCache is safe for concurrent use within a process. Across processes
// the rename-based writes keep entries internally consistent; concurrent
// writers of the same key race benignly (the results are identical by
// determinism).
type DiskCache struct {
	dir string
	cap int

	mu        sync.Mutex
	count     int // files present, maintained incrementally after the open scan
	hits      int
	misses    int
	stores    int
	evictions int
}

// diskEntry is the on-disk JSON layout of one cached point.
type diskEntry struct {
	Key    string       `json:"key"`
	Result *core.Result `json:"result"`
}

// OpenDiskCache opens (creating if needed) a persistent result cache rooted
// at dir, holding at most maxEntries files; maxEntries <= 0 selects
// DefaultDiskCacheEntries.
func OpenDiskCache(dir string, maxEntries int) (*DiskCache, error) {
	if maxEntries <= 0 {
		maxEntries = DefaultDiskCacheEntries
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: opening disk cache: %w", err)
	}
	d := &DiskCache{dir: dir, cap: maxEntries}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("sweep: opening disk cache: %w", err)
	}
	for _, e := range names {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			d.count++
		}
	}
	return d, nil
}

// Len returns the number of entries currently on disk.
func (d *DiskCache) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.count
}

// Counters reports hit/miss/store/eviction totals since open. The same
// counts feed the obs default registry as sweep.diskcache.{hits,misses,
// stores,evictions}.
func (d *DiskCache) Counters() (hits, misses, stores, evictions int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hits, d.misses, d.stores, d.evictions
}

// path maps a canonical key to its entry file.
func (d *DiskCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:])+".json")
}

// lookup returns the persisted result for key, refreshing its recency.
func (d *DiskCache) lookup(key string) (*core.Result, bool) {
	if d == nil {
		return nil, false
	}
	p := d.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		d.miss()
		return nil, false
	}
	var e diskEntry
	// An unreadable or colliding entry is treated as a miss: the solve path
	// will overwrite it with a fresh, correct entry.
	if json.Unmarshal(data, &e) != nil || e.Key != key || e.Result == nil {
		d.miss()
		return nil, false
	}
	// Best-effort recency bump for LRU eviction: a filesystem that rejects
	// Chtimes (read-only remount, permission change) only costs this entry
	// its recency, never the hit.
	now := time.Now()
	_ = os.Chtimes(p, now, now)
	d.mu.Lock()
	d.hits++
	d.mu.Unlock()
	obs.Default().Counter("sweep.diskcache.hits").Inc()
	return e.Result, true
}

func (d *DiskCache) miss() {
	d.mu.Lock()
	d.misses++
	d.mu.Unlock()
	obs.Default().Counter("sweep.diskcache.misses").Inc()
}

// store persists a successful result. Failures are not an error of the
// sweep: a full disk degrades the cache to pass-through, nothing more.
func (d *DiskCache) store(key string, res *core.Result) {
	if d == nil || res == nil {
		return
	}
	data, err := json.Marshal(diskEntry{Key: key, Result: res})
	if err != nil {
		return
	}
	p := d.path(key)
	tmp, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	_, statErr := os.Stat(p)
	existed := statErr == nil
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return
	}
	d.mu.Lock()
	d.stores++
	if !existed {
		d.count++
	}
	over := d.count - d.cap
	d.mu.Unlock()
	obs.Default().Counter("sweep.diskcache.stores").Inc()
	if over > 0 {
		d.evict()
	}
}

// evict removes oldest-mtime entries until the directory is back under cap.
func (d *DiskCache) evict() {
	d.mu.Lock()
	defer d.mu.Unlock()
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	type aged struct {
		name string
		mod  time.Time
	}
	var files []aged
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, aged{e.Name(), info.ModTime()})
	}
	// Ties on mtime (coarse filesystem timestamps, entries written within
	// one tick) break on the file name so the eviction order — and therefore
	// the surviving set — is deterministic across runs and processes.
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mod.Equal(files[j].mod) {
			return files[i].mod.Before(files[j].mod)
		}
		return files[i].name < files[j].name
	})
	d.count = len(files)
	for _, f := range files {
		if d.count <= d.cap {
			break
		}
		if os.Remove(filepath.Join(d.dir, f.name)) == nil {
			d.count--
			d.evictions++
			obs.Default().Counter("sweep.diskcache.evictions").Inc()
		}
	}
}
