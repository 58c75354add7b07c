package serve

import (
	"context"
	"encoding/base64"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mdes"
	"mdes/internal/faultfs"
	"mdes/internal/record"
)

// refSnapshot builds one realistic session snapshot on disk and returns it
// with the installed file's raw bytes.
func refSnapshot(t testing.TB, dir string) (record.Session, []byte) {
	t.Helper()
	snap := record.Session{
		Tenant: "plant",
		Model:  "default",
		Stream: mdes.StreamSnapshot{
			Ticks:   42,
			Emitted: 3,
			Windows: map[string][]string{"a": {"ON", "OFF"}, "b": {"OFF", "ON"}},
		},
	}
	frame, err := record.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := (store{fs: faultfs.OS, dir: dir}).write(record.SnapshotFile("plant"), frame); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, record.SnapshotFile("plant")))
	if err != nil {
		t.Fatal(err)
	}
	return snap, data
}

// checkDamaged loads a (possibly damaged) snapshot file and asserts the only
// legal outcomes: a clean miss (the tenant starts fresh) or the original
// snapshot, bit for bit. Never a panic, never an error, never a mutated
// snapshot.
func checkDamaged(t *testing.T, dir string, want record.Session, label string) {
	t.Helper()
	got, ok, _, err := loadSnapshot(store{fs: faultfs.OS, dir: dir}, "plant")
	if err != nil {
		t.Fatalf("%s: loadSnapshot error: %v", label, err)
	}
	if ok && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: damaged snapshot loaded as %+v, want exact original or a miss", label, got)
	}
}

// TestSnapshotTruncationSweep cuts the snapshot file at every byte length:
// any truncation short of the full frame must read as a miss, and the full
// frame as the exact original.
func TestSnapshotTruncationSweep(t *testing.T) {
	dir := t.TempDir()
	want, data := refSnapshot(t, dir)
	path := filepath.Join(dir, record.SnapshotFile("plant"))

	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, torn, err := loadSnapshot(store{fs: faultfs.OS, dir: dir}, "plant")
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if cut < len(data) && ok {
			t.Fatalf("cut at %d: truncated snapshot parsed as %+v", cut, got)
		}
		if cut > 0 && cut < len(data) && !torn {
			t.Fatalf("cut at %d: truncated snapshot not reported torn", cut)
		}
		if cut == len(data) && (!ok || !reflect.DeepEqual(got, want)) {
			t.Fatalf("full snapshot did not round-trip: ok=%v got=%+v", ok, got)
		}
	}
}

// TestSnapshotBitFlipSweep flips a single bit at every byte offset of the
// snapshot file: the CRC frame must catch every one — the load either misses
// cleanly or (never, for a framed file this small) returns the original.
func TestSnapshotBitFlipSweep(t *testing.T) {
	dir := t.TempDir()
	want, data := refSnapshot(t, dir)
	path := filepath.Join(dir, record.SnapshotFile("plant"))

	for off := 0; off < len(data); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[off] ^= 1 << bit
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			checkDamaged(t, dir, want, "flip")
		}
	}
}

// legacySnapshot is tenant "legacy"'s snapshot file as written before the
// session record gained its owner field: 12 ticks of coupledDataset(seed
// 23) under testModel. Its bytes are pinned; the record codec must keep
// restoring them.
const legacySnapshot = "6wAAACw5yrN7InRlbmFudCI6ImxlZ2FjeSIsIm1vZGVsIjoiZGVmYXVsdCIsInN0cmVhbSI6eyJ0aWNrcyI6MTIsImVtaXR0ZWQiOjEsIndpbmRvd3MiOnsiYSI6WyJPTiIsIk9OIiwiT04iLCJPRkYiLCJPRkYiLCJPRkYiLCJPRkYiLCJPRkYiXSwiYiI6WyJPTiIsIk9OIiwiT04iLCJPTiIsIk9GRiIsIk9GRiIsIk9GRiIsIk9GRiJdLCJjIjpbIk9GRiIsIk9GRiIsIk9GRiIsIk9GRiIsIk9OIiwiT04iLCJPRkYiLCJPTiJdfX19"

// resumeLegacy installs data as tenant "legacy"'s snapshot, restarts a
// server on it, and checks the stream resumes at 12 ticks bit for bit.
func resumeLegacy(t *testing.T, data []byte) *Server {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, record.SnapshotFile("legacy")), data, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, _, c := newTestServer(t, Options{SnapshotDir: dir})
	ds := coupledDataset(rand.New(rand.NewSource(23)), 24)
	rest, err := c.PushTicks(context.Background(), "legacy", ticksOf(ds, 12, 24))
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t)
	head := standalonePoints(t, m, ticksOf(ds, 0, 12))
	comparePoints(t, rest, standalonePoints(t, m, ticksOf(ds, 0, 24))[len(head):], "resumed")
	info, err := c.Session(context.Background(), "legacy")
	if err != nil {
		t.Fatal(err)
	}
	if info.Ticks != 24 {
		t.Fatalf("resumed session at %d ticks, want 12 restored + 12 pushed", info.Ticks)
	}
	return srv
}

// TestLegacySnapshotRestores: a snapshot file written before the record
// gained its owner field restores at its tick count.
func TestLegacySnapshotRestores(t *testing.T) {
	data, err := base64.StdEncoding.DecodeString(legacySnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if srv := resumeLegacy(t, data); srv.met.snapshotTorn.Load() != 0 {
		t.Fatal("intact legacy snapshot counted torn")
	}
}

// TestSnapshotTrailingBytesRestores: an intact frame followed by garbage
// restores the session at its tick count, and is counted torn.
func TestSnapshotTrailingBytesRestores(t *testing.T) {
	data, err := base64.StdEncoding.DecodeString(legacySnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if srv := resumeLegacy(t, append(data, "garbage"...)); srv.met.snapshotTorn.Load() != 1 {
		t.Fatalf("snapshotTorn = %d, want 1", srv.met.snapshotTorn.Load())
	}
}
