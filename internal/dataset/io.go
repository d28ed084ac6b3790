package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// The fvecs/ivecs formats are the de-facto interchange formats of the ANN
// benchmark datasets the paper uses (SIFT/GIST/DEEP releases): each row is
// a little-endian int32 dimension followed by that many 4-byte values.

// WriteFvecs writes rows to w in fvecs format.
func WriteFvecs(w io.Writer, rows [][]float32) error {
	bw := bufio.NewWriter(w)
	var buf [4]byte
	for _, row := range rows {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(row)))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
		for _, v := range row {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadFvecs reads all fvecs rows from r. Rows must share one dimension.
func ReadFvecs(r io.Reader) ([][]float32, error) {
	br := bufio.NewReader(r)
	var rows [][]float32
	dim := -1
	var buf [4]byte
	for {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return rows, nil
			}
			return nil, err
		}
		d := int(int32(binary.LittleEndian.Uint32(buf[:])))
		if d <= 0 || d > 1<<20 {
			return nil, fmt.Errorf("dataset: implausible fvecs dimension %d", d)
		}
		if dim == -1 {
			dim = d
		} else if d != dim {
			return nil, fmt.Errorf("dataset: inconsistent fvecs dimensions %d vs %d", d, dim)
		}
		row := make([]float32, d)
		for i := range row {
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return nil, fmt.Errorf("dataset: truncated fvecs row: %w", err)
			}
			row[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[:]))
		}
		rows = append(rows, row)
	}
}

// WriteIvecs writes integer rows (e.g. ground-truth id lists) in ivecs
// format.
func WriteIvecs(w io.Writer, rows [][]int) error {
	bw := bufio.NewWriter(w)
	var buf [4]byte
	for _, row := range rows {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(row)))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
		for _, v := range row {
			binary.LittleEndian.PutUint32(buf[:], uint32(int32(v)))
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SaveFvecsFile writes rows to path.
func SaveFvecsFile(path string, rows [][]float32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteFvecs(f, rows); err != nil {
		return err
	}
	return f.Sync()
}

// LoadFvecsFile reads rows from path.
func LoadFvecsFile(path string) ([][]float32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFvecs(f)
}
