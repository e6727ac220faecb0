package persist

import (
	"bytes"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, in := range [][]byte{
		nil,
		[]byte(""),
		[]byte("{}"),
		[]byte(strings.Repeat(`{"name":"Shelter","street":"Main St","city":"Springfield"}`, 200)),
		{0x00, 0x01, 0xFF, 0xFE}, // binary payloads survive too
	} {
		framed := Compress(in)
		if framed[0] != FrameGzip {
			t.Fatalf("Compress output missing frame marker: % x", framed[:1])
		}
		out, err := Decompress(framed)
		if err != nil {
			t.Fatalf("Decompress: %v", err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("round trip mangled %d bytes -> %d bytes", len(in), len(out))
		}
	}
}

// Unframed payloads — raw JSON snapshots included — are rejected, not
// passed through: framed bytes are the only form a snapshot takes
// outside the process.
func TestFrameRejectsUnframed(t *testing.T) {
	for _, raw := range [][]byte{nil, []byte(`{"version":3,"relations":[]}`), []byte("\n  {}")} {
		if out, err := Decompress(raw); err == nil || out != nil {
			t.Fatalf("Decompress(%q) = %q, %v; want an error", raw, out, err)
		}
	}
}

func TestFrameCorruptionIsAnError(t *testing.T) {
	framed := Compress([]byte(strings.Repeat("abc", 100)))
	// Truncate mid-stream and flip a byte inside the deflate data.
	for _, bad := range [][]byte{
		framed[:len(framed)/2],
		append(append([]byte{}, framed[:5]...), 0xDE, 0xAD),
	} {
		if _, err := Decompress(bad); err == nil {
			t.Fatalf("corrupt frame (%d bytes) decompressed without error", len(bad))
		}
	}
}

func TestFrameCompressesRealSnapshots(t *testing.T) {
	// A realistic snapshot shape: repeated keys and cell tags, like the
	// persist JSON format produces.
	var b strings.Builder
	b.WriteString(`{"version":3,"relations":[{"name":"Shelters","rows":[`)
	for i := 0; i < 500; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(`[{"k":1,"v":"Grace Church Shelter"},{"k":1,"v":"12 Main St"},{"k":1,"v":"Springfield"}]`)
	}
	b.WriteString(`]}]}`)
	raw := []byte(b.String())
	framed := Compress(raw)
	if ratio := float64(len(raw)) / float64(len(framed)); ratio < 2 {
		t.Fatalf("compression ratio %.2f on repetitive JSON, want >= 2", ratio)
	}
}
