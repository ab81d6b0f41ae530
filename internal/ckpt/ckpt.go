// Package ckpt is DYFLOW's checkpoint substrate: a deterministic snapshot
// format plus a write-ahead journal, used by the core orchestrator to make
// the four-stage control loop restartable (DESIGN.md §12). The paper's
// stages run "continuously" for the lifetime of a campaign; everything the
// orchestrator cannot recompute from the workflow itself — policy history
// windows, staleness gates, T_waiting (including recovery entries),
// in-flight suggestion lifecycles, sensor join cursors — is serialized
// here so a crashed or restarted orchestrator resumes steering instead of
// forgetting the campaign.
//
// The on-disk/in-memory format is deliberately simple and self-verifying:
//
//	file   := magic("DYCK") version(u16) record*
//	record := payloadLen(u32) crc32(u32, IEEE, of payload) payload
//	payload:= kindLen(u8) kind data
//
// Every record carries its own checksum, so a torn write (crash mid-append)
// is detected and the journal's corrupt tail is dropped instead of
// poisoning the replay — the journal analogue of "monitoring pipelines must
// tolerate corrupt and missing samples". Snapshots are a single record;
// journals are an append-only sequence replayed in write order.
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

// Store persists one orchestrator's checkpoints in a directory: a snapshot
// file plus an append-only journal of entries written since that snapshot.
// SaveSnapshot is atomic (temp file + rename) and truncates the journal,
// so the pair is always mutually consistent: journal entries apply on top
// of the snapshot they follow.
type Store struct {
	dir string
}

const (
	snapshotFile = "snapshot.ckpt"
	journalFile  = "journal.wal"
)

// NewStore opens (creating if needed) a checkpoint directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) snapshotPath() string { return filepath.Join(st.dir, snapshotFile) }
func (st *Store) journalPath() string  { return filepath.Join(st.dir, journalFile) }

// SaveSnapshot writes blob (an Encode result) as the current snapshot and
// resets the journal: entries logged before the snapshot are superseded by
// it.
func (st *Store) SaveSnapshot(blob []byte) error {
	tmp := st.snapshotPath() + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, st.snapshotPath()); err != nil {
		return err
	}
	// A fresh journal begins after every snapshot.
	f, err := os.Create(st.journalPath())
	if err != nil {
		return err
	}
	defer f.Close()
	return WriteHeader(f)
}

// LoadSnapshot returns the current snapshot blob (nil, os.ErrNotExist when
// none has been saved).
func (st *Store) LoadSnapshot() ([]byte, error) {
	return os.ReadFile(st.snapshotPath())
}

// Append logs one journal entry (JSON-marshaled) after the last snapshot.
func (st *Store) Append(kind string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(st.journalPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		// Journal before any snapshot: start one so replay-from-zero works.
		if f, err = os.Create(st.journalPath()); err == nil {
			err = WriteHeader(f)
		}
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return WriteRecord(f, Record{Kind: kind, Data: data})
}

// Replay streams the journal entries written since the last snapshot, in
// write order. A corrupt or torn tail ends the replay at the last good
// record instead of failing: a crash mid-append loses at most the entry
// being written. A missing journal replays nothing.
func (st *Store) Replay(fn func(rec Record) error) error {
	f, err := os.Open(st.journalPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	if err := ReadHeader(f); err != nil {
		return nil // empty or torn header: nothing to replay
	}
	for {
		rec, err := ReadRecord(f)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if errors.Is(err, ErrCorrupt) {
			return nil // torn tail: stop at the last good record
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}
