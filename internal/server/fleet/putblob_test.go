package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"dyflow/internal/obs"
)

// TestPutAs_KeepsOnlyExactMisses: the store takes a caller's slice over
// only on a miss and only when the slice has no spare capacity, and says
// so; a slice with room to spare is stored as an exact copy that does not
// alias it, and a dedup or a digest mismatch keeps nothing.
func TestPutAs_KeepsOnlyExactMisses(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		b, err := NewBlobStore(dir, nil)
		if err != nil {
			t.Fatal(err)
		}

		spare := append(make([]byte, 0, 64), "an artifact with room to spare"...)
		digest := Digest(spare)
		if kept, err := b.PutAs(digest, spare); err != nil || kept {
			t.Fatalf("dir %q: a spare-capacity miss: kept %v, %v; want a copy", dir, kept, err)
		}
		got, _ := b.Get(digest)
		if cap(got) != len(got) || &got[0] == &spare[0] {
			t.Fatalf("dir %q: the stored blob has cap %d for %d bytes, aliasing the caller's: %v",
				dir, cap(got), len(got), &got[0] == &spare[0])
		}
		copy(spare, "overwritten by its owner")
		if got, _ := b.Get(digest); Digest(got) != digest {
			t.Fatalf("dir %q: overwriting the caller's slice changed the stored blob", dir)
		}

		exact := []byte("an exactly sized artifact")
		exact = exact[:len(exact):len(exact)]
		digest = Digest(exact)
		if kept, err := b.PutAs(digest, exact); err != nil || !kept {
			t.Fatalf("dir %q: an exact miss: kept %v, %v; want it kept", dir, kept, err)
		}
		if got, _ := b.Get(digest); &got[0] != &exact[0] {
			t.Fatalf("dir %q: the store copied a slice it reported kept", dir)
		}

		again := bytes.Clone(exact)
		again = again[:len(again):len(again)]
		if kept, err := b.PutAs(digest, again); err != nil || kept {
			t.Fatalf("dir %q: a dedup: kept %v, %v; want nothing kept", dir, kept, err)
		}
		if got, _ := b.Get(digest); &got[0] == &again[0] {
			t.Fatalf("dir %q: a dedup replaced the stored blob with the caller's slice", dir)
		}

		if kept, err := b.PutAs(digest, []byte("tampered")); err == nil || kept {
			t.Fatalf("dir %q: a mismatch: kept %v, %v; want refused and nothing kept", dir, kept, err)
		}
	}
}

// TestPutAs_DiskBlobIsADedup: a blob that a previous process left on disk
// is answered as stored, and an upload of it again brings no copy into
// memory — what a HEAD probe found before a worker stopped sending one.
func TestPutAs_DiskBlobIsADedup(t *testing.T) {
	dir := t.TempDir()
	first, err := NewBlobStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("an artifact from the last process")
	data = data[:len(data):len(data)]
	if _, err := first.Put(data); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	b, err := NewBlobStore(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if kept, err := b.PutAs(Digest(data), data); err != nil || kept {
		t.Fatalf("re-upload of a blob on disk: kept %v, %v; want a dedup", kept, err)
	}
	if n, _ := reg.Value("dyflow_server_fleet_blobs"); n != 0 {
		t.Fatalf("the re-upload made %v blobs resident, want none", n)
	}
	if n, _ := reg.Value("dyflow_server_fleet_blob_dedup_total"); n != 1 {
		t.Fatalf("dedups = %v, want 1", n)
	}
}

// TestPutBlobs_ReturnsAfterBodyClosed: a coordinator answers a batch
// upload 503 before it reads the body, so net/http hands the reply back
// while it may still be sending the body. PutBlobs must not return before
// the transport is done with the bytes: the caller overwrites them at
// once, and under -race a read of them after PutBlobs returned is a
// reported race.
func TestPutBlobs_ReturnsAfterBodyClosed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "not now", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := Dial(WorkerOptions{Coordinator: strings.TrimPrefix(srv.URL, "http://")})
	defer c.(*httpCoordinator).client.CloseIdleConnections()

	// 1.5 MiB in two blobs: far more than a socket buffer.
	a := bytes.Repeat([]byte("artifact"), 1<<17)
	b := bytes.Repeat([]byte("gantt"), 1<<16)
	for i := 0; i < 5; i++ {
		blobs := []Blob{{Name: "a", Digest: Digest(a), Data: a}, {Name: "b", Digest: Digest(b), Data: b}}
		err := c.PutBlobs(context.Background(), blobs)
		if err == nil || blobs[0].Kept || blobs[1].Kept {
			t.Fatalf("upload %d: err %v, kept %v %v; want a refusal and nothing kept", i, err, blobs[0].Kept, blobs[1].Kept)
		}
		for _, data := range [][]byte{a, b} {
			for j := range data {
				data[j] = byte(i)
			}
		}
	}
}

// TestDial_CopiesBodiesThroughConnBuffer: a worker's own connections copy
// a request body that outgrows net/http's write buffer through one buffer
// each keeps, so a warm connection allocates no copy buffer per upload.
// Each 64 KiB upload then allocates far less than the 32 KiB buffer
// io.Copy would make for it.
func TestDial_CopiesBodiesThroughConnBuffer(t *testing.T) {
	if raceDetector || testing.CoverMode() != "" {
		t.Skip("allocation counts are not comparable under -race or -cover")
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusCreated)
	}))
	defer srv.Close()
	c := Dial(WorkerOptions{Coordinator: strings.TrimPrefix(srv.URL, "http://")})
	defer c.(*httpCoordinator).client.CloseIdleConnections()

	data := bytes.Repeat([]byte("x"), 64<<10)
	digest := Digest(data)
	put := func() {
		if err := c.PutBlobs(context.Background(), []Blob{{Digest: digest, Data: data}}); err != nil {
			t.Fatal(err)
		}
	}
	put()
	const puts = 20
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < puts; i++ {
		put()
	}
	runtime.ReadMemStats(&ms)
	per := (ms.TotalAlloc - before) / puts
	t.Logf("a 64 KiB upload allocates %d B, client and server together", per)
	if per >= 24<<10 {
		t.Fatalf("a 64 KiB upload allocated %d B, want under 24 KiB: is a copy buffer allocated per request?", per)
	}
}
