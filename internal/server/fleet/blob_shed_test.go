package fleet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dyflow/internal/obs"
)

// TestFaultBlobDiskWriteShedsToMemory pins the blob store's degraded
// mode: a blob whose disk write fails stays memory-resident and fully
// servable — the PUT succeeds, the shed is counted, and the degraded
// gauge holds at 1 until the next write the disk accepts. A digest
// mismatch, by contrast, stays a hard upload error: shedding covers a
// sick disk, never a wrong address.
func TestFaultBlobDiskWriteShedsToMemory(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	b, err := NewBlobStore(dir, reg)
	if err != nil {
		t.Fatal(err)
	}

	data := []byte("degraded-blob-payload")
	digest := Digest(data)
	// Wedge this digest's fan-out directory: a regular file where the
	// store needs a directory makes MkdirAll fail. (chmod is no use —
	// the test may run as root, which ignores permission bits.)
	if err := os.WriteFile(filepath.Join(dir, digest[:2]), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := b.PutAs(digest, data); err != nil {
		t.Fatalf("PUT failed on a sick disk instead of shedding: %v", err)
	}
	if got, ok := b.Get(digest); !ok || !bytes.Equal(got, data) {
		t.Fatal("shed blob not servable from memory")
	}
	if v, _ := reg.Value("dyflow_server_degraded_sheds_total"); v != 1 {
		t.Fatalf("degraded_sheds_total = %v, want 1", v)
	}
	if v, _ := reg.Value("dyflow_server_degraded_mode"); v != 1 {
		t.Fatalf("degraded_mode = %v, want 1 while the disk is sick", v)
	}

	// Shedding never loosens content addressing.
	if _, err := b.PutAs(digest, []byte("not the addressed bytes")); err == nil {
		t.Fatal("digest mismatch accepted under degraded mode")
	}

	// A blob on a healthy fan-out prefix lands on disk and clears the
	// gauge.
	var healthy []byte
	var healthyDigest string
	for i := 0; ; i++ {
		healthy = []byte(fmt.Sprintf("healthy-blob-%d", i))
		healthyDigest = Digest(healthy)
		if healthyDigest[:2] != digest[:2] {
			break
		}
	}
	if _, err := b.PutAs(healthyDigest, healthy); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, healthyDigest[:2], healthyDigest)); err != nil {
		t.Fatalf("healthy blob not durable: %v", err)
	}
	if v, _ := reg.Value("dyflow_server_degraded_mode"); v != 0 {
		t.Fatalf("degraded_mode = %v after a successful disk write, want 0", v)
	}
	if v, _ := reg.Value("dyflow_server_degraded_sheds_total"); v != 1 {
		t.Fatalf("degraded_sheds_total = %v, want still 1", v)
	}
}
