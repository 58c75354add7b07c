package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"

	"mdes/internal/faultfs"
	"mdes/internal/record"
)

// store is one flat directory of session records, named by the record
// package's file helpers: the snapshot store holds one record per tenant,
// the standby store one per (owner, tenant). It moves bytes only; what a
// record means is the codec's business, so both stores share one durable
// write path and cannot diverge in crash safety. The directory is flat
// because faultfs.FS has no Mkdir, which keeps the injected filesystem and
// the real one behaviourally identical.
type store struct {
	fs  faultfs.FS
	dir string
}

// write durably replaces the named file with one encoded record.
func (st store) write(name string, frame []byte) error {
	if err := writeDurable(st.fs, st.dir, filepath.Join(st.dir, name), frame); err != nil {
		return fmt.Errorf("serve: write %s: %w", name, err)
	}
	return nil
}

// read returns the named file's bytes; a missing file is (nil, nil).
func (st store) read(name string) ([]byte, error) {
	data, err := st.fs.ReadFile(filepath.Join(st.dir, name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: read %s: %w", name, err)
	}
	return data, nil
}

// remove deletes the named file and makes the removal durable; a missing
// file is fine.
func (st store) remove(name string) error {
	err := st.fs.Remove(filepath.Join(st.dir, name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	return st.fs.SyncDir(st.dir)
}

// tenants lists, sorted, the tenants whose file names parse yields (one of
// the record package's name inverses). A missing directory is an empty
// list; temp files and foreign names are skipped.
func (st store) tenants(parse func(name string) (string, bool)) ([]string, error) {
	names, err := st.fs.ReadDir(st.dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: list %s: %w", st.dir, err)
	}
	var tenants []string
	for _, name := range names {
		if tenant, ok := parse(name); ok {
			tenants = append(tenants, tenant)
		}
	}
	sort.Strings(tenants)
	return tenants, nil
}

// writeDurable durably replaces path with one framed record: temp file in
// dir, write, fsync, close, rename over path, fsync the directory. A crash
// at any point leaves either the old intact file or the new one — never a
// torn file that parses. The directory fsync matters: without it the rename
// (or the very first file's creation) lives only in the dirty directory page
// and can be undone by power loss.
func writeDurable(fsys faultfs.FS, dir, path string, frame []byte) error {
	tmp, err := fsys.CreateTemp(dir, ".snap-*")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(frame); err != nil {
		_ = tmp.Close() // the write error is the one reported
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close() // the sync error is the one reported
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// loadSnapshot reads and decodes a tenant's snapshot. A missing file is a
// miss. A file with no intact frame is a miss reported torn: the caller
// decides whether the resulting fresh start is routine (mid-rename crash)
// or worth surfacing. An intact frame followed by trailing bytes loads, and
// is reported torn too. An intact frame that does not decode, or names
// another tenant, is an error.
func loadSnapshot(st store, tenant string) (rec record.Session, ok, torn bool, err error) {
	data, err := st.read(record.SnapshotFile(tenant))
	if err != nil || len(data) == 0 {
		return record.Session{}, false, false, err
	}
	rec, trailing, err := record.Decode(data)
	if errors.Is(err, record.ErrTorn) {
		return record.Session{}, false, true, nil
	}
	if err == nil && rec.Tenant != tenant {
		err = fmt.Errorf("record names tenant %q", rec.Tenant)
	}
	if err != nil {
		return record.Session{}, false, false, fmt.Errorf("serve: snapshot for %q: %w", tenant, err)
	}
	return rec, true, trailing, nil
}

// standbyCopy reads the copy of tenant held for owner and its header.
// Missing, torn, or naming another (owner, tenant) all read as no copy: a
// broken copy is as useless as an absent one, and a copy in the envelope
// format that predates the session record names no owner, so it is never
// promoted or shipped as state.
func standbyCopy(st store, owner, tenant string) (data []byte, h record.Header, ok bool, err error) {
	data, err = st.read(record.StandbyFile(owner, tenant))
	if err != nil || data == nil {
		return nil, record.Header{}, false, err
	}
	h, trailing, err := record.DecodeHeader(data)
	if err != nil || trailing || h.Owner != owner || h.Tenant != tenant {
		return nil, record.Header{}, false, nil
	}
	return data, h, true, nil
}
