package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dyflow/internal/obs"
)

func TestBlobStoreContentAddressing(t *testing.T) {
	reg := obs.NewRegistry()
	b, err := NewBlobStore("", reg)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the artifact bytes")
	digest, err := b.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if digest != Digest(data) {
		t.Fatalf("Put stored under %s, content is %s", digest, Digest(data))
	}
	got, ok := b.Get(digest)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("Get(%s) = %q, %v", digest, got, ok)
	}
	if !b.Has(digest) || b.Has(Digest([]byte("other"))) {
		t.Fatal("Has disagrees with the store contents")
	}

	// Identical content dedups to one blob.
	if _, err := b.Put(data); err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Value("dyflow_server_fleet_blobs"); v != 1 {
		t.Fatalf("%v blobs after duplicate Put", v)
	}
	if v, _ := reg.Value("dyflow_server_fleet_blob_dedup_total"); v != 1 {
		t.Fatalf("dedup counter = %v", v)
	}

	// An upload whose body does not hash to its address is rejected.
	if _, err := b.PutAs(digest, []byte("tampered")); err == nil {
		t.Fatal("mismatched blob accepted")
	}
}

func TestBlobStoreDurabilityAndGC(t *testing.T) {
	dir := t.TempDir()
	b1, err := NewBlobStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	keepDigest, err := b1.Put([]byte("keep me"))
	if err != nil {
		t.Fatal(err)
	}
	dropDigest, err := b1.Put([]byte("drop me"))
	if err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory serves blobs written by its
	// predecessor.
	b2, err := NewBlobStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if data, ok := b2.Get(keepDigest); !ok || string(data) != "keep me" {
		t.Fatalf("blob not durable across processes: %q, %v", data, ok)
	}

	// GC drops unreferenced blobs from memory and disk.
	b2.GC(map[string]bool{keepDigest: true})
	if b2.Has(dropDigest) {
		t.Fatal("unreferenced blob survived GC")
	}
	if _, err := os.Stat(filepath.Join(dir, dropDigest[:2], dropDigest)); !os.IsNotExist(err) {
		t.Fatalf("unreferenced blob file survived GC: %v", err)
	}
	if !b2.Has(keepDigest) {
		t.Fatal("referenced blob dropped by GC")
	}
}

// TestBlobStoreGCCountsEachBlobOnce: a blob this process wrote sits both in
// memory and on disk, and GC reports it swept once, not once per copy.
func TestBlobStoreGCCountsEachBlobOnce(t *testing.T) {
	b, err := NewBlobStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for _, s := range []string{"one", "two", "three"} {
		d, err := b.Put([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	if n := b.GC(map[string]bool{digests[0]: true}); n != 2 {
		t.Fatalf("GC of 3 blobs keeping 1 reports %d swept, want 2", n)
	}
	if len(b.mem) != 1 || !b.Has(digests[0]) || b.Has(digests[1]) || b.Has(digests[2]) {
		t.Fatal("GC kept the wrong blobs")
	}
}
