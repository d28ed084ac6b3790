// WAL tail streaming: the catch-up transport of replication. A joining
// replica resumes from an LSN cursor — the primary replays every record
// past the cursor into the HTTP response using the exact on-disk record
// framing (u32 length + u32 CRC32 + payload), prefixed by a stream
// magic. Reusing the segment encoding means the stream inherits the
// segment format's corruption detection for free, and the decoder below
// is the segment scanner's loop pointed at a socket instead of a file.
//
// Unlike a segment scan, a stream does not tolerate a torn tail: a
// short read or CRC mismatch mid-stream is a transport error
// (ErrStreamCorrupt) and the follower re-requests from its cursor —
// the cursor, not the stream, is the source of truth.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// StreamMagic starts every WAL tail stream, versioned separately from
// the segment magic so the wire format can evolve without a disk
// migration.
const StreamMagic = "RESWALT1"

// ErrStreamCorrupt reports a WAL tail stream that ended mid-record or
// failed its checksum — re-request from the cursor.
var ErrStreamCorrupt = errors.New("wal: tail stream torn or corrupt")

// AppendRecordWire appends r in the on-disk record framing to buf and
// returns the extended slice. It is the encoding half of StreamReader
// and of every segment record; an OpCheckpoint record carries Durable
// in the ID slot, mirroring appendLocked.
func AppendRecordWire(buf []byte, r Record) []byte {
	id := int64(r.ID)
	if r.Op == OpCheckpoint {
		id = int64(r.Durable)
	}
	plen := payloadFixed + 4*len(r.Vec)
	start := len(buf)
	buf = append(buf, make([]byte, recHeaderLen+plen)...)
	p := buf[start+recHeaderLen:]
	binary.LittleEndian.PutUint64(p[0:], r.LSN)
	p[8] = byte(r.Op)
	binary.LittleEndian.PutUint32(p[9:], uint32(r.Shard))
	binary.LittleEndian.PutUint64(p[13:], uint64(id))
	binary.LittleEndian.PutUint32(p[21:], uint32(len(r.Vec)))
	for i, x := range r.Vec {
		binary.LittleEndian.PutUint32(p[payloadFixed+4*i:], math.Float32bits(x))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(plen))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(p))
	return buf
}

// StreamWriter encodes records onto one WAL tail stream. NewStreamWriter
// writes the stream magic immediately; Flush must be called before the
// underlying writer is handed back to the transport.
type StreamWriter struct {
	bw  *bufio.Writer
	buf []byte
	err error
}

// NewStreamWriter starts a tail stream on w, writing the magic.
func NewStreamWriter(w io.Writer) *StreamWriter {
	sw := &StreamWriter{bw: bufio.NewWriterSize(w, 1<<16)}
	_, sw.err = sw.bw.WriteString(StreamMagic)
	return sw
}

// Write encodes one record.
func (sw *StreamWriter) Write(r Record) error {
	if sw.err != nil {
		return sw.err
	}
	sw.buf = AppendRecordWire(sw.buf[:0], r)
	_, sw.err = sw.bw.Write(sw.buf)
	return sw.err
}

// Flush drains the buffered encoder to the underlying writer.
func (sw *StreamWriter) Flush() error {
	if sw.err != nil {
		return sw.err
	}
	sw.err = sw.bw.Flush()
	return sw.err
}

// StreamReader decodes a WAL tail stream. Records arrive in LSN order;
// the reader enforces strict monotonicity exactly like the segment
// scanner, so a primary bug cannot feed a follower a reordered log.
type StreamReader struct {
	br      *bufio.Reader
	hdr     [recHeaderLen]byte
	payload []byte
	last    uint64
	started bool
}

// NewStreamReader wraps r; the stream magic is consumed on first Next.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next record, io.EOF at a clean end of stream, and
// ErrStreamCorrupt when the stream tears mid-record or a checksum
// fails.
func (sr *StreamReader) Next() (Record, error) {
	if !sr.started {
		magic := make([]byte, len(StreamMagic))
		if _, err := io.ReadFull(sr.br, magic); err != nil {
			return Record{}, fmt.Errorf("%w: reading stream magic: %v", ErrStreamCorrupt, err)
		}
		if string(magic) != StreamMagic {
			return Record{}, fmt.Errorf("%w: bad stream magic %q", ErrStreamCorrupt, magic)
		}
		sr.started = true
	}
	if _, err := io.ReadFull(sr.br, sr.hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF // clean record boundary
		}
		return Record{}, fmt.Errorf("%w: torn header: %v", ErrStreamCorrupt, err)
	}
	plen := int(binary.LittleEndian.Uint32(sr.hdr[0:]))
	wantCRC := binary.LittleEndian.Uint32(sr.hdr[4:])
	if plen < payloadFixed || plen > payloadFixed+4*maxDim {
		return Record{}, fmt.Errorf("%w: implausible payload length %d", ErrStreamCorrupt, plen)
	}
	var err error
	if sr.payload, err = readPayload(sr.br, sr.payload, plen); err != nil {
		return Record{}, fmt.Errorf("%w: torn payload: %v", ErrStreamCorrupt, err)
	}
	if crc32.ChecksumIEEE(sr.payload) != wantCRC {
		return Record{}, fmt.Errorf("%w: checksum mismatch", ErrStreamCorrupt)
	}
	rec, ok := decodePayload(sr.payload)
	if !ok {
		return Record{}, fmt.Errorf("%w: malformed record at lsn %d", ErrStreamCorrupt, rec.LSN)
	}
	if rec.LSN <= sr.last {
		return Record{}, fmt.Errorf("%w: non-monotone lsn %d after %d", ErrStreamCorrupt, rec.LSN, sr.last)
	}
	sr.last = rec.LSN
	return rec, nil
}

// readPayload reads an n-byte record payload into buf's storage and returns
// it, growing buf as bytes arrive: a record header may claim 16 MiB, and a
// peer (or a torn segment tail) that sends only the header must not make
// the reader reserve it.
func readPayload(br *bufio.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		c := min(n-len(buf), 1<<16)
		buf = slices.Grow(buf, c)[:len(buf)+c]
		if _, err := io.ReadFull(br, buf[len(buf)-c:]); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// decodePayload decodes one CRC-verified record payload. It returns
// ok=false for a structurally invalid record (length/dim mismatch,
// unknown op) — corruption the CRC cannot catch only if the sender
// itself is broken.
func decodePayload(payload []byte) (Record, bool) {
	rec := Record{
		LSN:   binary.LittleEndian.Uint64(payload[0:]),
		Op:    Op(payload[8]),
		Shard: int(binary.LittleEndian.Uint32(payload[9:])),
	}
	id := int64(binary.LittleEndian.Uint64(payload[13:]))
	dim := int(binary.LittleEndian.Uint32(payload[21:]))
	if len(payload) != payloadFixed+4*dim {
		return rec, false
	}
	switch rec.Op {
	case OpUpsert:
		rec.ID = int(id)
		rec.Vec = make([]float32, dim)
		for i := range rec.Vec {
			rec.Vec[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[payloadFixed+4*i:]))
		}
	case OpDelete:
		rec.ID = int(id)
	case OpCheckpoint:
		rec.Durable = uint64(id)
	default:
		return rec, false
	}
	return rec, true
}
