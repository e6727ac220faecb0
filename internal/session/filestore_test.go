package session_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"copycat/internal/session"
)

// snapPath returns where a FileStore keeps the snapshot for id.
func snapPath(fs *session.FileStore, id string) string {
	return filepath.Join(fs.Dir(), id+".snap")
}

// repetitiveSnapshot is a stand-in for real persist JSON: repeated keys
// and cell tags, so it compresses the way real snapshots do.
func repetitiveSnapshot() []byte {
	return []byte(`{"relations":[` + strings.Repeat(`{"name":"Shelters","city":"Springfield"},`, 300) + `{}]}`)
}

func TestFileStoreRoundTrip(t *testing.T) {
	fs, err := session.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := repetitiveSnapshot()
	if err := fs.Save("s000001", data); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, ok, err := fs.Load("s000001")
	if err != nil || !ok {
		t.Fatalf("Load = ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mangled the snapshot")
	}
	// Missing IDs report cleanly, no error.
	if _, ok, err := fs.Load("s999999"); ok || err != nil {
		t.Fatalf("Load missing = ok=%v err=%v, want false,nil", ok, err)
	}
	// The on-disk file is framed and compressed: header magic plus a
	// payload much smaller than the raw snapshot.
	disk, err := os.ReadFile(snapPath(fs, "s000001"))
	if err != nil {
		t.Fatal(err)
	}
	if string(disk[:4]) != "SCPS" {
		t.Fatalf("snapshot file missing magic: % x", disk[:4])
	}
	if len(disk) >= len(data) {
		t.Fatalf("snapshot not compressed: %d bytes on disk for %d raw", len(disk), len(data))
	}
	st := fs.Stats()
	if st.Snapshots != 1 || st.RawBytes != int64(len(data)) || st.DiskBytes != int64(len(disk)) {
		t.Fatalf("stats %+v, want 1 snapshot, raw=%d disk=%d", st, len(data), len(disk))
	}
	if st.CompressionRatio() < 2 {
		t.Fatalf("compression ratio %.2f on repetitive JSON, want >= 2", st.CompressionRatio())
	}
	if err := fs.Delete("s000001"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := fs.Load("s000001"); ok {
		t.Fatal("snapshot survived Delete")
	}
	if fs.Len() != 0 {
		t.Fatalf("Len = %d after delete", fs.Len())
	}
}

func TestFileStoreSaveReplacesAtomically(t *testing.T) {
	fs, err := session.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("s000001", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	second := repetitiveSnapshot()
	if err := fs.Save("s000001", second); err != nil {
		t.Fatal(err)
	}
	got, ok, err := fs.Load("s000001")
	if err != nil || !ok || !bytes.Equal(got, second) {
		t.Fatalf("Load after replace = ok=%v err=%v", ok, err)
	}
	// No temp litter: every *.tmp-* was renamed or removed.
	entries, err := os.ReadDir(fs.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

func TestFileStoreQuarantinesCorruption(t *testing.T) {
	good := repetitiveSnapshot()
	corruptions := []struct {
		name    string
		corrupt func(path string, t *testing.T)
	}{
		{"garbage", func(path string, t *testing.T) {
			if err := os.WriteFile(path, []byte("\x00\x02not a snapshot"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		// Raw JSON is not a snapshot file: a file store holds only
		// framed snapshots behind its header.
		{"raw-json", func(path string, t *testing.T) {
			if err := os.WriteFile(path, []byte("\n  {\"version\":3,\"relations\":[]}"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated-header", func(path string, t *testing.T) {
			if err := os.WriteFile(path, []byte("SCPS\x01\x00"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated-payload", func(path string, t *testing.T) {
			disk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, disk[:len(disk)-7], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped-payload-byte", func(path string, t *testing.T) {
			disk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			disk[len(disk)-3] ^= 0xFF
			if err := os.WriteFile(path, disk, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad-crc", func(path string, t *testing.T) {
			disk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			disk[13] ^= 0xFF // CRC field
			if err := os.WriteFile(path, disk, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := session.NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			const id = "s000001"
			if err := fs.Save(id, good); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(snapPath(fs, id), t)
			_, ok, err := fs.Load(id)
			if ok || !errors.Is(err, session.ErrCorruptSnapshot) {
				t.Fatalf("Load corrupt = ok=%v err=%v, want ErrCorruptSnapshot", ok, err)
			}
			// The bad file is preserved in quarantine/, out of the hot path.
			if _, err := os.Stat(filepath.Join(fs.Dir(), "quarantine", id+".snap")); err != nil {
				t.Fatalf("corrupt snapshot not quarantined: %v", err)
			}
			// The next Load reports "no snapshot" cleanly instead of
			// tripping over the same bytes forever.
			if _, ok, err := fs.Load(id); ok || err != nil {
				t.Fatalf("Load after quarantine = ok=%v err=%v, want false,nil", ok, err)
			}
			st := fs.Stats()
			if st.LoadErrors != 1 || st.Quarantined != 1 || st.Snapshots != 0 {
				t.Fatalf("stats after quarantine: %+v", st)
			}
		})
	}
}

func TestFileStoreReopenRecoversIndexAndManifest(t *testing.T) {
	dir := t.TempDir()
	fs, err := session.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := repetitiveSnapshot()
	created := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	for _, id := range []string{"s000001", "s000002"} {
		fs.SetMeta(id, session.SnapshotMeta{Tenant: "tenant-" + id, Created: created})
		if err := fs.Save(id, data); err != nil {
			t.Fatal(err)
		}
	}
	// A manifest entry without a snapshot (deleted under a previous
	// process) must be dropped on reopen.
	fs.SetMeta("s000099", session.SnapshotMeta{Tenant: "ghost"})

	fs2, err := session.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := fs2.List()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(ids)
	if len(ids) != 2 || ids[0] != "s000001" || ids[1] != "s000002" {
		t.Fatalf("List after reopen = %v", ids)
	}
	meta, ok := fs2.Meta("s000001")
	if !ok || meta.Tenant != "tenant-s000001" || !meta.Created.Equal(created) {
		t.Fatalf("Meta after reopen = %+v ok=%v", meta, ok)
	}
	if _, ok := fs2.Meta("s000099"); ok {
		t.Fatal("stale manifest entry survived reopen")
	}
	// Raw sizes come from the header scan, not the file size.
	st := fs2.Stats()
	if st.Snapshots != 2 || st.RawBytes != int64(2*len(data)) {
		t.Fatalf("stats after reopen: %+v, want raw=%d", st, 2*len(data))
	}
	// Losing the manifest costs only the tenant labels, never snapshots.
	if err := os.Remove(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}
	fs3, err := session.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fs3.Len() != 2 {
		t.Fatalf("snapshots lost with the manifest: Len=%d", fs3.Len())
	}
	if _, ok := fs3.Meta("s000001"); ok {
		t.Fatal("meta should be gone with the manifest")
	}
	if got, ok, err := fs3.Load("s000001"); err != nil || !ok || !bytes.Equal(got, data) {
		t.Fatalf("Load after manifest loss = ok=%v err=%v", ok, err)
	}
}

func TestFileStoreRejectsEscapingIDs(t *testing.T) {
	fs, err := session.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", ".", "..", "../evil", "a/b", `a\b`} {
		if err := fs.Save(id, []byte("{}")); err == nil {
			t.Fatalf("Save(%q) accepted a path-escaping id", id)
		}
		if _, _, err := fs.Load(id); err == nil {
			t.Fatalf("Load(%q) accepted a path-escaping id", id)
		}
	}
}
