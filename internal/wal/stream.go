// WAL tail streaming: the catch-up transport of replication. A joining
// replica resumes from an LSN cursor — the primary replays every record
// past the cursor into the HTTP response as the same frames a segment
// holds (frame.go), prefixed by a stream magic. The stream is encoded by
// appendFrame and decoded by frameReader, the pair that writes and
// recovers segments, so it has the segment format's corruption
// detection, and FuzzFrames holds a stream and a segment of the same
// frames to the same records.
//
// Unlike a segment scan, a stream does not tolerate a torn tail: a
// short read or CRC mismatch mid-stream is a transport error
// (ErrStreamCorrupt) and the follower re-requests from its cursor —
// the cursor, not the stream, is the source of truth.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// StreamMagic starts every WAL tail stream, versioned separately from
// the segment magic so the wire format can evolve without a disk
// migration.
const StreamMagic = "RESWALT1"

// ErrStreamCorrupt reports a WAL tail stream that ended mid-record or
// failed its checksum — re-request from the cursor.
var ErrStreamCorrupt = errors.New("wal: tail stream torn or corrupt")

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
	sw.buf = appendFrame(sw.buf[:0], r)
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
// the frame reader enforces strict monotonicity exactly as for a
// segment, so a primary bug cannot feed a follower a reordered log.
type StreamReader struct {
	fr      frameReader
	started bool
}

// NewStreamReader wraps r; the stream magic is consumed on first Next.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{fr: frameReader{br: bufio.NewReaderSize(r, 1<<16)}}
}

// Next returns the next record, io.EOF at a clean end of stream, and
// ErrStreamCorrupt when the stream tears mid-record, a checksum fails or
// an intact record is bad.
func (sr *StreamReader) Next() (Record, error) {
	if !sr.started {
		magic := make([]byte, len(StreamMagic))
		if _, err := io.ReadFull(sr.fr.br, magic); err != nil {
			return Record{}, fmt.Errorf("%w: reading stream magic: %v", ErrStreamCorrupt, err)
		}
		if string(magic) != StreamMagic {
			return Record{}, fmt.Errorf("%w: bad stream magic %q", ErrStreamCorrupt, magic)
		}
		sr.started = true
	}
	rec, err := sr.fr.next()
	if err != nil && !errors.Is(err, io.EOF) {
		return Record{}, fmt.Errorf("%w: %v", ErrStreamCorrupt, err)
	}
	return rec, err
}
