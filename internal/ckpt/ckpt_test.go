package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/iotest"
)

func TestEncodeDecodeRoundtrip(t *testing.T) {
	type payload struct {
		Name string
		N    int
		Xs   []float64
	}
	in := payload{Name: "orch", N: 42, Xs: []float64{1.5, -2, 0}}
	blob, err := Encode("core", in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var out payload
	if err := Decode(blob, "core", &out); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.Name != in.Name || out.N != in.N || len(out.Xs) != 3 || out.Xs[1] != -2 {
		t.Fatalf("roundtrip mismatch: %+v", out)
	}
}

func TestDecodeRejectsWrongKind(t *testing.T) {
	blob, err := Encode("core", map[string]int{"a": 1})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var v map[string]int
	if err := Decode(blob, "other", &v); err == nil {
		t.Fatal("Decode accepted wrong kind")
	}
}

func TestDecodeRejectsBadMagicAndVersion(t *testing.T) {
	blob, err := Encode("core", 1)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	var v int
	if err := Decode(bad, "core", &v); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad magic: got %v, want ErrBadFormat", err)
	}
	bad = append([]byte(nil), blob...)
	bad[4]++ // version low byte
	if err := Decode(bad, "core", &v); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad version: got %v, want ErrBadFormat", err)
	}
}

func TestDecodeDetectsCorruptPayload(t *testing.T) {
	blob, err := Encode("core", map[string]string{"k": "value"})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)-2] ^= 0xff // flip a payload byte; checksum must catch it
	var v map[string]string
	if err := Decode(bad, "core", &v); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt payload: got %v, want ErrCorrupt", err)
	}
}

func TestRecordStreamRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf); err != nil {
		t.Fatalf("WriteHeader: %v", err)
	}
	recs := []Record{
		{Kind: "round", Data: []byte(`{"n":1}`)},
		{Kind: "round", Data: []byte(`{"n":2}`)},
		{Kind: "mark", Data: nil},
	}
	for _, r := range recs {
		if err := WriteRecord(&buf, r); err != nil {
			t.Fatalf("WriteRecord: %v", err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	if err := ReadHeader(r); err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	for i, want := range recs {
		got, err := ReadRecord(r)
		if err != nil {
			t.Fatalf("ReadRecord %d: %v", i, err)
		}
		if got.Kind != want.Kind || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("record %d mismatch: %+v", i, got)
		}
	}
	if _, err := ReadRecord(r); !errors.Is(err, io.EOF) {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

// TestAppendWritesFramedRecords: Append starts the store's file with a
// header and adds one framed record per call, in call order.
func TestAppendWritesFramedRecords(t *testing.T) {
	st, err := NewStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	for i := 1; i <= 3; i++ {
		if err := st.Append("round", map[string]int{"n": i}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	f, err := os.Open(filepath.Join(st.Dir(), journalFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := ReadHeader(f); err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	for i := 1; i <= 3; i++ {
		rec, err := ReadRecord(f)
		if want := fmt.Sprintf(`{"n":%d}`, i); err != nil || rec.Kind != "round" || string(rec.Data) != want {
			t.Fatalf("record %d = %q %s, %v; want round %s", i, rec.Kind, rec.Data, err, want)
		}
	}
	if _, err := ReadRecord(f); !errors.Is(err, io.EOF) {
		t.Fatalf("after three records: %v, want io.EOF", err)
	}
}

// allocated is the heap the process has allocated so far, in bytes.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestReadRecordBoundsAllocationByInput: the length prefix is unverified
// until the checksum is, so a 16-byte input claiming a 250 MB record must
// cost what it holds, not what it claims, and a record larger than the
// first buffer still reads back whole however the reader splits it.
func TestReadRecordBoundsAllocationByInput(t *testing.T) {
	lie := binary.LittleEndian.AppendUint32(nil, 250_000_000)
	lie = binary.LittleEndian.AppendUint32(lie, 0)
	lie = append(lie, "run{}xyz"...)
	before := allocated()
	_, err := ReadRecord(bytes.NewReader(lie))
	if got := allocated() - before; got >= 64<<10 {
		t.Fatalf("a %d-byte input claiming 250 MB allocated %d bytes", len(lie), got)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}

	big := Record{Kind: "round", Data: bytes.Repeat([]byte("0123456789"), 10_000)}
	var buf bytes.Buffer
	if err := WriteRecord(&buf, big); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecord(iotest.HalfReader(bytes.NewReader(buf.Bytes())))
	if err != nil || got.Kind != big.Kind || !bytes.Equal(got.Data, big.Data) {
		t.Fatalf("a %d-byte record read back as %q (%d bytes), %v", len(big.Data), got.Kind, len(got.Data), err)
	}
}

// FuzzReadRecord: no input panics, none allocates more than a small
// multiple of its own size, and every record that reads back re-encodes
// to exactly the bytes it was read from.
func FuzzReadRecord(f *testing.F) {
	var buf bytes.Buffer
	for _, rec := range []Record{{Kind: "run", Data: []byte(`{"seq":1}`)}, {Kind: "mark"}, {Kind: "", Data: []byte{0}}} {
		buf.Reset()
		if err := WriteRecord(&buf, rec); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), buf.Bytes()...))
		f.Add(append(append([]byte(nil), buf.Bytes()...), buf.Bytes()[:5]...))
		f.Add(append([]byte(nil), buf.Bytes()[:len(buf.Bytes())-1]...))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0, 'r', 'u', 'n'})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		before := allocated()
		rec, err := ReadRecord(r)
		if got := allocated() - before; got > 64<<10+4*uint64(len(data)) {
			t.Fatalf("a %d-byte input allocated %d bytes", len(data), got)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteRecord(&out, rec); err != nil {
			t.Fatal(err)
		}
		if read := data[:len(data)-r.Len()]; !bytes.Equal(out.Bytes(), read) {
			t.Fatalf("record read from %x re-encodes as %x", read, out.Bytes())
		}
	})
}
