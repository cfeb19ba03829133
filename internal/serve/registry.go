package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sddict/internal/dictio"
	"sddict/internal/faultfs"
	"sddict/internal/obs"
)

// entry is one loaded dictionary artifact in the registry. The cache
// identity is (path, checksum): a re-publish under the same path shows
// up as a new checksum when reloaded, so stale rankings are always
// attributable.
//
// Pin contract (the eviction-vs-in-flight audit, DESIGN.md §12): an
// entry handed out by get/load is *pinned* until the caller's unpin.
// Entries are immutable after load, and eviction — explicit or LRU —
// only unlinks the entry from the registry map; a pinned holder keeps
// a fully valid snapshot for the rest of its request, and the entry's
// memory is reclaimed when the last pin drops. The pin count exists to
// make that invariant observable: dict_evict trace events record how
// many requests were still holding the victim, and the race-leg
// regression test (TestEvictRacesLongBatchDiagnose) hammers evictions
// against a long in-flight batch to prove no request ever sees torn
// state.
type entry struct {
	path     string
	checksum uint32
	header   dictio.Header
	dict     *dictio.Artifact
	lastUsed int64 // registry use sequence, for LRU ordering
	pins     atomic.Int64
}

// unpin releases one get/load reference.
func (e *entry) unpin() { e.pins.Add(-1) }

// registry is the LRU cache of loaded dictionary artifacts. Loads
// happen under the lock: a diagnosis against an unloaded dictionary
// pays the load once, and concurrent requests for the same artifact
// never load it twice. Capacity is small (dictionaries are the working
// set of a tester cell, not a fleet), so the linear LRU scan is noise.
type registry struct {
	fs  faultfs.FS
	cap int
	ob  *obs.Observer

	mu      sync.Mutex
	useSeq  int64
	entries map[string]*entry
}

func newRegistry(capacity int, fsys faultfs.FS, ob *obs.Observer) *registry {
	if capacity < 1 {
		capacity = 1
	}
	if fsys == nil {
		fsys = faultfs.OS
	}
	return &registry{fs: fsys, cap: capacity, ob: ob, entries: make(map[string]*entry)}
}

// get returns the entry for path — pinned — loading (and caching) the
// artifact on a miss, as the "load" stage of the request span ctx
// carries. The returned entry is immutable after load, so callers may
// use it outside the lock; they must unpin it when the request is done.
func (r *registry) get(ctx context.Context, path string) (*entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[path]; ok {
		r.useSeq++
		e.lastUsed = r.useSeq
		e.pins.Add(1)
		r.ob.M().Inc(obs.ServeDictHits)
		return e, nil
	}
	sp := obs.SpanFrom(ctx)
	sp.BeginStage("load")
	defer sp.EndStage()
	return r.loadLocked(path)
}

// load (re)loads the artifact at path unconditionally — the explicit
// /dictionaries/load action, which also picks up a re-published
// artifact under an existing path.
func (r *registry) load(path string) (*entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.entries, path)
	return r.loadLocked(path)
}

func (r *registry) loadLocked(path string) (*entry, error) {
	a, err := dictio.LoadFS(r.fs, path)
	if err != nil {
		return nil, fmt.Errorf("serve: loading dictionary: %w", err)
	}
	r.useSeq++
	e := &entry{path: path, checksum: a.Checksum, header: a.Header, dict: a, lastUsed: r.useSeq}
	e.pins.Add(1)
	r.entries[path] = e
	r.ob.M().Inc(obs.ServeDictLoads)
	r.ob.Emit("dict_load", map[string]any{
		"path": path, "checksum": fmt.Sprintf("%08x", a.Checksum),
		"faults": len(a.Header.Faults), "tests": a.Header.Tests,
	})
	r.evictOverCapLocked()
	return e, nil
}

// evictOverCapLocked drops least-recently-used entries until the
// registry fits its capacity again.
func (r *registry) evictOverCapLocked() {
	for len(r.entries) > r.cap {
		var victim *entry
		for _, e := range r.entries {
			if victim == nil || e.lastUsed < victim.lastUsed {
				victim = e
			}
		}
		delete(r.entries, victim.path)
		r.ob.M().Inc(obs.ServeDictEvicts)
		r.ob.Emit("dict_evict", map[string]any{
			"path": victim.path, "reason": "lru", "pinned": victim.pins.Load(),
		})
	}
}

// evict removes path from the registry, reporting whether it was
// loaded.
func (r *registry) evict(path string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[path]
	if !ok {
		return false
	}
	delete(r.entries, path)
	r.ob.M().Inc(obs.ServeDictEvicts)
	r.ob.Emit("dict_evict", map[string]any{
		"path": path, "reason": "explicit", "pinned": e.pins.Load(),
	})
	return true
}

// DictionaryInfo is one registry entry as listed by /dictionaries.
type DictionaryInfo struct {
	Path     string `json:"path"`
	Checksum string `json:"checksum"`
	Circuit  string `json:"circuit"`
	Kind     string `json:"kind"`
	TestSet  string `json:"test_set"`
	Faults   int    `json:"faults"`
	Tests    int    `json:"tests"`
	Outputs  int    `json:"outputs"`
}

func (r *registry) list() []DictionaryInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DictionaryInfo, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, DictionaryInfo{
			Path:     e.path,
			Checksum: fmt.Sprintf("%08x", e.checksum),
			Circuit:  e.header.Circuit,
			Kind:     e.header.Kind,
			TestSet:  e.header.TestSet,
			Faults:   len(e.header.Faults),
			Tests:    e.header.Tests,
			Outputs:  e.header.Outputs,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Path < out[b].Path })
	return out
}
