// Package fleet is the campaign service's execution substrate: the
// registry of workers that have joined the coordinator (Manager — it holds
// no lease: which worker holds which run is the run's state, kept by
// internal/server), a content-addressed blob store the finished
// artifacts live in (so N runs with identical bytes cost one copy,
// fleet-wide), and the Worker — the service's only executor — that
// registers with a Coordinator, claims runs, heartbeats its leases, and
// uploads results, over HTTP or from inside the coordinator's process.
// docs/SERVICE.md ("Workers") is the narrative description.
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"dyflow/internal/obs"
)

// Digest returns the content address of a blob: its sha256, hex-encoded.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// BlobStore is a content-addressed artifact store: blobs are keyed by
// their sha256, so identical artifacts — a re-executed deterministic run,
// a cache hit, two seeds converging on the same report — are stored once.
// With a directory it is durable (one file per blob, written atomically);
// without one it is memory-only. All methods are safe for concurrent use.
type BlobStore struct {
	dir string // "" = memory only

	mu  sync.Mutex
	mem map[string][]byte

	count *obs.Gauge   // dyflow_server_fleet_blobs
	size  *obs.Gauge   // dyflow_server_fleet_blob_bytes
	dedup *obs.Counter // dyflow_server_fleet_blob_dedup_total

	// Degraded mode: a failed disk write keeps the blob memory-resident
	// (serving continues) instead of failing the upload — counted per
	// shed, gauge held at 1 until a later write succeeds.
	degraded *obs.Gauge   // dyflow_server_degraded_mode{component="blobs"}
	sheds    *obs.Counter // dyflow_server_degraded_sheds_total{component="blobs"}
}

// NewBlobStore opens a blob store rooted at dir ("" keeps blobs in memory
// only), registering its dyflow_server_fleet_blob_* families in reg.
func NewBlobStore(dir string, reg *obs.Registry) (*BlobStore, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &BlobStore{
		dir: dir,
		mem: map[string][]byte{},
		count: reg.Gauge("dyflow_server_fleet_blobs",
			"Blobs resident in the content-addressed artifact store.").With(),
		size: reg.Gauge("dyflow_server_fleet_blob_bytes",
			"Total bytes resident in the content-addressed artifact store.").With(),
		dedup: reg.Counter("dyflow_server_fleet_blob_dedup_total",
			"Blob uploads answered by an already-stored identical blob.").With(),
		degraded: reg.Gauge("dyflow_server_degraded_mode",
			"1 while the component is operating degraded (shedding work instead of blocking).",
			"component").With("blobs"),
		sheds: reg.Counter("dyflow_server_degraded_sheds_total",
			"Operations shed to a degraded path instead of blocking the API.",
			"component").With("blobs"),
	}, nil
}

// path is the blob's on-disk location, fanned out by digest prefix.
func (b *BlobStore) path(digest string) string {
	return filepath.Join(b.dir, digest[:2], digest)
}

// Put stores data under its own digest and returns that digest.
func (b *BlobStore) Put(data []byte) (string, error) {
	digest := Digest(data)
	return digest, b.PutAs(digest, data)
}

// PutAs stores data under digest, verifying the content actually hashes
// to it — a worker upload with a wrong address is rejected, not stored.
//
// A failed *disk* write is not an upload failure: the blob stays
// memory-resident and fully servable, so the store sheds to a degraded
// memory-only mode (counted, gauge at 1) instead of failing the PUT.
// That trade is safe because restore already demotes done runs whose
// artifact references no longer resolve back to queued — losing the
// durable copy costs a deterministic re-execution after a crash, never
// a wrong answer. The gauge clears on the next write the disk accepts.
func (b *BlobStore) PutAs(digest string, data []byte) error {
	if got := Digest(data); got != digest {
		return fmt.Errorf("fleet: blob digest mismatch: body is %s, address is %s", got, digest)
	}
	b.mu.Lock()
	if _, ok := b.mem[digest]; ok {
		b.mu.Unlock()
		b.dedup.Inc()
		return nil
	}
	b.mem[digest] = data
	b.count.Add(1)
	b.size.Add(float64(len(data)))
	b.mu.Unlock()

	if b.dir == "" {
		return nil
	}
	if err := b.writeDisk(digest, data); err != nil {
		b.sheds.Inc()
		b.degraded.Set(1)
		return nil
	}
	b.degraded.Set(0)
	return nil
}

// writeDisk persists one blob atomically (tmp + rename).
func (b *BlobStore) writeDisk(digest string, data []byte) error {
	p := b.path(digest)
	if _, err := os.Stat(p); err == nil {
		return nil // already durable (e.g. restored from a prior process)
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, p)
}

// Get returns a blob's bytes, falling back to disk for blobs written by a
// previous process (they are cached in memory on first read).
func (b *BlobStore) Get(digest string) ([]byte, bool) {
	b.mu.Lock()
	data, ok := b.mem[digest]
	b.mu.Unlock()
	if ok {
		return data, true
	}
	if b.dir == "" || len(digest) < 2 {
		return nil, false
	}
	data, err := os.ReadFile(b.path(digest))
	if err != nil || Digest(data) != digest {
		return nil, false
	}
	b.mu.Lock()
	if _, dup := b.mem[digest]; !dup {
		b.mem[digest] = data
		b.count.Add(1)
		b.size.Add(float64(len(data)))
	}
	b.mu.Unlock()
	return data, true
}

// Has reports whether a blob is resident (memory or disk).
func (b *BlobStore) Has(digest string) bool {
	b.mu.Lock()
	_, ok := b.mem[digest]
	b.mu.Unlock()
	if ok || b.dir == "" || len(digest) < 2 {
		return ok
	}
	_, err := os.Stat(b.path(digest))
	return err == nil
}

// Size returns a blob's stored byte size (0 when absent) — the run
// store's per-tenant retention accounting reads it at record time.
func (b *BlobStore) Size(digest string) int64 {
	b.mu.Lock()
	data, ok := b.mem[digest]
	b.mu.Unlock()
	if ok {
		return int64(len(data))
	}
	if b.dir == "" || len(digest) < 2 {
		return 0
	}
	fi, err := os.Stat(b.path(digest))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Len returns the number of in-memory blobs (tests).
func (b *BlobStore) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.mem)
}

// GC drops every blob whose digest is not in keep — the coordinator calls
// it after a restore, once the run table says which artifacts are still
// referenced, so re-executed runs' superseded bytes do not accumulate.
func (b *BlobStore) GC(keep map[string]bool) int {
	b.mu.Lock()
	var drop []string
	for digest := range b.mem {
		if !keep[digest] {
			drop = append(drop, digest)
		}
	}
	for _, digest := range drop {
		b.size.Add(-float64(len(b.mem[digest])))
		b.count.Add(-1)
		delete(b.mem, digest)
	}
	b.mu.Unlock()

	removed := len(drop)
	if b.dir != "" {
		prefixes, _ := os.ReadDir(b.dir)
		for _, pre := range prefixes {
			if !pre.IsDir() {
				continue
			}
			entries, _ := os.ReadDir(filepath.Join(b.dir, pre.Name()))
			for _, e := range entries {
				if !keep[e.Name()] {
					if os.Remove(filepath.Join(b.dir, pre.Name(), e.Name())) == nil {
						removed++
					}
				}
			}
		}
	}
	return removed
}
