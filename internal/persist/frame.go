package persist

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
)

// Snapshot compression framing. Session snapshots are JSON (very
// repetitive: repeated column names, cell kind tags, edge endpoints), so
// a snapshot that leaves the process — a durable store's file, a
// System.SaveSession export — is gzipped behind a one-byte format
// marker. Framed bytes are the only form a snapshot takes outside the
// process; Decompress rejects anything else.

// FrameGzip marks a gzip-compressed snapshot payload. The value is an
// ASCII SOH, unreachable as the first byte of any JSON document.
const FrameGzip byte = 0x01

// Compress frames data as a gzip-compressed snapshot payload. The
// result always starts with FrameGzip; pass it to Decompress to get the
// original bytes back.
func Compress(data []byte) []byte {
	var buf bytes.Buffer
	buf.WriteByte(FrameGzip)
	zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	zw.Write(data)
	zw.Close()
	return buf.Bytes()
}

// Decompress undoes Compress. Input without the FrameGzip marker (raw
// JSON included) is an error, and so is a framed payload that fails to
// inflate.
func Decompress(data []byte) ([]byte, error) {
	if len(data) == 0 || data[0] != FrameGzip {
		return nil, fmt.Errorf("persist: not a framed snapshot (want format byte 0x%02x)", FrameGzip)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data[1:]))
	if err != nil {
		return nil, fmt.Errorf("persist: corrupt gzip frame: %w", err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("persist: corrupt gzip frame: %w", err)
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("persist: corrupt gzip frame: %w", err)
	}
	return out, nil
}
