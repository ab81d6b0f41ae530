// Package ckpt is DYFLOW's record framing: a versioned header plus
// self-checksummed records. It has two users.
//
//   - The core orchestrator's checkpoint blob (Encode/Decode, DESIGN.md
//     §12): everything the orchestrator cannot recompute from the workflow
//     itself — policy history windows, staleness gates, T_waiting
//     (including recovery entries), in-flight suggestion lifecycles, sensor
//     join cursors — is serialized into one record, so an orchestrator
//     killed mid-campaign hands its state to its successor in memory and
//     the successor resumes steering instead of forgetting the campaign.
//     The blob never touches disk.
//   - The run-history store (internal/runstore), whose segment files are
//     sequences of these records (WriteHeader/WriteRecord/ReadRecord).
//
// The format is deliberately simple and self-verifying:
//
//	stream := magic("DYCK") version(u16) record*
//	record := payloadLen(u32) crc32(u32, IEEE, of payload) payload
//	payload:= kindLen(u8) kind data
//
// Every record carries its own checksum, so a torn write (crash mid-append)
// is detected and a reader stops at the last good record instead of
// reading garbage — the file analogue of "monitoring pipelines must
// tolerate corrupt and missing samples".
//
// Store is not part of either use. Nothing in the module writes one: it
// stays only because the campaign-service benchmark's ckpt.append_s_p50
// probe (bench/probes.go) times Append, and goes with that probe.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Version is the current checkpoint format version. Readers reject files
// written by a different major format.
const Version uint16 = 1

var magic = [4]byte{'D', 'Y', 'C', 'K'}

// ErrBadFormat reports a stream that is not a ckpt file at all (wrong
// magic) or one written by an unsupported version.
var ErrBadFormat = errors.New("ckpt: bad format")

// ErrCorrupt reports a record whose checksum or framing failed — the
// reader stops at the last good record.
var ErrCorrupt = errors.New("ckpt: corrupt record")

// Record is one framed entry: a kind tag plus an opaque payload (JSON in
// all current uses).
type Record struct {
	Kind string
	Data []byte
}

// maxRecordSize bounds a single record so a corrupt length prefix cannot
// drive an allocation of arbitrary size.
const maxRecordSize = 1 << 28 // 256 MiB

// WriteHeader writes the magic and version.
func WriteHeader(w io.Writer) error {
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, Version)
}

// ReadHeader verifies the magic and version.
func ReadHeader(r io.Reader) error {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if m != magic {
		return fmt.Errorf("%w: magic %q", ErrBadFormat, m[:])
	}
	var v uint16
	if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if v != Version {
		return fmt.Errorf("%w: version %d (want %d)", ErrBadFormat, v, Version)
	}
	return nil
}

// WriteRecord frames one record: length prefix, CRC32 of the payload, then
// the payload itself.
func WriteRecord(w io.Writer, rec Record) error {
	if len(rec.Kind) > 255 {
		return fmt.Errorf("ckpt: kind %q too long", rec.Kind)
	}
	payload := make([]byte, 0, 1+len(rec.Kind)+len(rec.Data))
	payload = append(payload, byte(len(rec.Kind)))
	payload = append(payload, rec.Kind...)
	payload = append(payload, rec.Data...)
	if err := binary.Write(w, binary.LittleEndian, uint32(len(payload))); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, crc32.ChecksumIEEE(payload)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadRecord reads the next framed record. It returns io.EOF at a clean
// end, and ErrCorrupt when the framing or checksum fails (a torn tail).
func ReadRecord(r io.Reader) (Record, error) {
	var n, sum uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: length: %v", ErrCorrupt, err)
	}
	if n < 1 || n > maxRecordSize {
		return Record{}, fmt.Errorf("%w: length %d", ErrCorrupt, n)
	}
	if err := binary.Read(r, binary.LittleEndian, &sum); err != nil {
		return Record{}, fmt.Errorf("%w: checksum: %v", ErrCorrupt, err)
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return Record{}, fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return Record{}, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	kindLen := int(payload[0])
	if 1+kindLen > len(payload) {
		return Record{}, fmt.Errorf("%w: kind length %d", ErrCorrupt, kindLen)
	}
	return Record{
		Kind: string(payload[1 : 1+kindLen]),
		Data: payload[1+kindLen:],
	}, nil
}

// payloadChunk is readPayload's first allocation: every record the
// coordinator writes fits in it.
const payloadChunk = 16 << 10

// readPayload reads exactly n bytes. The length prefix it comes from is
// not verified until the checksum is, so the buffer grows as bytes arrive,
// doubling from payloadChunk: a corrupt prefix costs at most about twice
// what the stream actually holds, never what the prefix claims.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, payloadChunk))
	for got := 0; ; {
		m, err := io.ReadFull(r, buf[got:])
		got += m
		if err != nil {
			return nil, err
		}
		if got == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-got, got))...)
	}
}

// Encode frames a single JSON-marshaled record as a standalone checkpoint
// blob (header + one record) — the in-memory form Orchestrator.Checkpoint
// returns.
func Encode(kind string, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := WriteHeader(&buf); err != nil {
		return nil, err
	}
	if err := WriteRecord(&buf, Record{Kind: kind, Data: data}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode verifies a standalone checkpoint blob and unmarshals its single
// record into v, checking the kind tag.
func Decode(blob []byte, kind string, v any) error {
	r := bytes.NewReader(blob)
	if err := ReadHeader(r); err != nil {
		return err
	}
	rec, err := ReadRecord(r)
	if err != nil {
		return err
	}
	if rec.Kind != kind {
		return fmt.Errorf("ckpt: record kind %q (want %q)", rec.Kind, kind)
	}
	return json.Unmarshal(rec.Data, v)
}

// Store is an append-only record file in a directory, kept only for the
// benchmark probe that times Append (see the package doc).
type Store struct {
	dir string
}

const journalFile = "journal.wal"

// NewStore opens (creating if needed) a store directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory.
func (st *Store) Dir() string { return st.dir }

// Append frames v (JSON-marshaled) as one record at the end of the
// store's file, writing the header first when the file is new.
func (st *Store) Append(kind string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	path := filepath.Join(st.dir, journalFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		if f, err = os.Create(path); err == nil {
			err = WriteHeader(f)
		}
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return WriteRecord(f, Record{Kind: kind, Data: data})
}
