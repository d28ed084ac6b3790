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

// The record frame, shared by segment files and tail streams:
//
//	u32 payload length | u32 CRC32 (IEEE) of the payload | payload
//	payload = u64 lsn | u8 op | u32 shard | i64 id | u32 dim | dim × f32
//
// all little-endian. An OpCheckpoint record carries Durable in the id
// slot. appendFrame is the only encoder and frameReader the only decoder;
// a segment or a stream adds nothing but its magic in front.
const (
	// recHeaderLen is the fixed per-record prefix: u32 payload length +
	// u32 CRC32 of the payload.
	recHeaderLen = 8
	// payloadFixed is the payload size before the vector components:
	// u64 lsn + u8 op + u32 shard + i64 id + u32 dim.
	payloadFixed = 8 + 1 + 4 + 8 + 4
	// maxDim bounds decoded vector lengths as a corruption guard.
	maxDim = 1 << 22
)

// errTorn marks a frame that did not arrive whole and intact: a short
// header or payload, an implausible length, a checksum mismatch, or a
// length that disagrees with the payload's dim. A segment drops it as the
// tail a crash left; a stream reports it as ErrStreamCorrupt.
var errTorn = errors.New("torn frame")

// appendFrame appends r as one frame to buf and returns the extended
// slice; it allocates only when buf lacks the capacity.
func appendFrame(buf []byte, r Record) []byte {
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

// frameReader decodes consecutive frames from br, the bytes after a
// segment's or a stream's magic. LSNs must rise strictly above last,
// which starts at the caller's floor.
type frameReader struct {
	br      *bufio.Reader
	hdr     [recHeaderLen]byte
	payload []byte
	last    uint64
}

// next reads one frame. It returns the record; io.EOF at a clean end (no
// header byte left); an error wrapping errTorn for a frame that did not
// arrive whole; or any other error for an intact frame holding a bad
// record (an unknown op, an LSN that does not rise).
func (fr *frameReader) next() (Record, error) {
	if _, err := io.ReadFull(fr.br, fr.hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: header: %v", errTorn, err)
	}
	plen := int(binary.LittleEndian.Uint32(fr.hdr[0:]))
	if plen < payloadFixed || plen > payloadFixed+4*maxDim {
		return Record{}, fmt.Errorf("%w: implausible payload length %d", errTorn, plen)
	}
	var err error
	if fr.payload, err = readPayload(fr.br, fr.payload, plen); err != nil {
		return Record{}, fmt.Errorf("%w: payload: %v", errTorn, err)
	}
	p := fr.payload
	if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(fr.hdr[4:]) {
		return Record{}, fmt.Errorf("%w: checksum mismatch", errTorn)
	}
	rec := Record{
		LSN:   binary.LittleEndian.Uint64(p[0:]),
		Op:    Op(p[8]),
		Shard: int(binary.LittleEndian.Uint32(p[9:])),
	}
	id := int64(binary.LittleEndian.Uint64(p[13:]))
	dim := int(binary.LittleEndian.Uint32(p[21:]))
	if plen != payloadFixed+4*dim {
		return Record{}, fmt.Errorf("%w: payload length %d for dim %d", errTorn, plen, dim)
	}
	switch rec.Op {
	case OpUpsert:
		rec.ID = int(id)
		rec.Vec = make([]float32, dim)
		for i := range rec.Vec {
			rec.Vec[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[payloadFixed+4*i:]))
		}
	case OpDelete:
		rec.ID = int(id)
	case OpCheckpoint:
		rec.Durable = uint64(id)
	default:
		return Record{}, fmt.Errorf("unknown op %d at lsn %d", rec.Op, rec.LSN)
	}
	if rec.LSN <= fr.last {
		return Record{}, fmt.Errorf("non-monotone lsn %d after %d", rec.LSN, fr.last)
	}
	fr.last = rec.LSN
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
