package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"reflect"
	"testing"

	"mdes"
	"mdes/internal/record"
)

// FuzzWireDecode runs arbitrary byte streams through the NDJSON tick path
// handleTicks uses (tickScanner + decodeTick) and checks it can't be driven
// off the rails by hostile request bodies:
//
//   - scanning and decoding never panic;
//   - a line either skips (blank), errors, or yields a tick that survives a
//     JSON round-trip with identical keys and values — with one map reused
//     across lines, exactly as the handler reuses it, so no key of an
//     earlier line can leak into a later one.
//
// TestTickScannerRefusesOversizedLines covers the memory bound separately (a
// megabyte seed would stall the fuzzer's throughput).
func FuzzWireDecode(f *testing.F) {
	// Seeds mirror the E2E test corpus: well-formed ticks, blank separators,
	// malformed JSON, and wrong JSON shapes.
	f.Add([]byte(`{"temp":"a","pressure":"b"}` + "\n" + `{"temp":"c","pressure":"d"}` + "\n"))
	f.Add([]byte("\n\n{\"s1\":\"x\"}\n"))
	f.Add([]byte(`{"temp":`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"temp":42}`))
	f.Add([]byte(`{"":""}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc := tickScanner(bytes.NewReader(data))
		var scratch map[string]string
		lines := 0
		for sc.Scan() {
			lines++
			if lines > 1<<16 {
				return // enough structure exercised; keep iterations fast
			}
			line := sc.Bytes()
			tick, skip, err := decodeTick(line, scratch)
			if tick != nil {
				scratch = tick
			}
			if skip {
				if len(line) != 0 {
					t.Fatalf("non-empty line %q skipped", line)
				}
				continue
			}
			if err != nil {
				continue // rejected lines surface a 400 upstream; nothing to check
			}
			// Accepted ticks must survive a round-trip unchanged: the wire
			// form is what snapshots and the load generator replay.
			re, err := json.Marshal(tick)
			if err != nil {
				t.Fatalf("decoded tick does not re-marshal: %v", err)
			}
			var back map[string]string
			if err := json.Unmarshal(re, &back); err != nil {
				t.Fatalf("re-marshalled tick does not parse: %v", err)
			}
			var fresh map[string]string
			if err := json.Unmarshal(line, &fresh); err != nil || len(fresh) != len(tick) {
				t.Fatalf("reused map holds %d keys, a fresh decode %d (%v)", len(tick), len(fresh), err)
			}
			if len(back) != len(tick) {
				t.Fatalf("round-trip changed key count: %d != %d", len(back), len(tick))
			}
			for k, v := range tick {
				if back[k] != v {
					t.Fatalf("round-trip changed %q: %q != %q", k, back[k], v)
				}
			}
		}
	})
}

// TestTickScannerRefusesOversizedLines pins the memory bound: a line past
// maxTickLine makes the scanner stop with bufio.ErrTooLong instead of
// buffering it, so one client cannot balloon the server.
func TestTickScannerRefusesOversizedLines(t *testing.T) {
	sc := tickScanner(bytes.NewReader(bytes.Repeat([]byte("x"), maxTickLine+2)))
	for sc.Scan() {
		if len(sc.Bytes()) > maxTickLine {
			t.Fatalf("scanner yielded a %d-byte line past the %d cap", len(sc.Bytes()), maxTickLine)
		}
	}
	if err := sc.Err(); err == nil {
		t.Fatal("oversized line scanned without error")
	}
}

// FuzzDecodeRecord drives the one session-record decoder — snapshot files,
// standby files, handoff bodies and replication bodies all go through it —
// with arbitrary bytes:
//
//   - decoding never panics;
//   - it errors, or yields a record that re-encodes to a frame decoding to
//     the same record, whose header agrees with it;
//   - a record naming the fixture model either fails RestoreStream or
//     restores a stream whose Snapshot is the record's stream.
func FuzzDecodeRecord(f *testing.F) {
	m := testModel(f)
	_, snap := refSnapshot(f, f.TempDir())
	f.Add(snap)
	for _, b64 := range []string{legacySnapshot, legacyStandby} {
		data, err := base64.StdEncoding.DecodeString(b64)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	good, err := record.Encode(record.Session{Tenant: "t", Model: "default", Owner: "http://peer:1", Stream: m.NewStream().Snapshot()})
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0xFF
	f.Add(good)
	f.Add(flipped)                                 // bad CRC
	f.Add(good[:len(good)-3])                      // truncated
	f.Add(append(good[:len(good):len(good)], 'x')) // trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, _, err := record.Decode(data)
		if err != nil {
			return
		}
		h, _, err := record.DecodeHeader(data)
		if err != nil || h.Tenant != rec.Tenant || h.Owner != rec.Owner || h.Stream.Ticks != rec.Stream.Ticks {
			t.Fatalf("header %+v (err %v) disagrees with record %+v", h, err, rec)
		}
		re, err := record.Encode(rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		back, trailing, err := record.Decode(re)
		if err != nil || trailing || !reflect.DeepEqual(back, rec) {
			t.Fatalf("re-encoded record decodes as %+v (trailing %v, err %v), want %+v", back, trailing, err, rec)
		}
		if rec.Model != "default" {
			return
		}
		stream, err := m.RestoreStream(rec.Stream)
		if err != nil {
			return
		}
		if got := stream.Snapshot(); !sameStream(got, rec.Stream) {
			t.Fatalf("restored stream snapshots as %+v, record holds %+v", got, rec.Stream)
		}
	})
}

// sameStream compares stream snapshots, treating nil and empty windows as
// equal (JSON keeps the difference, a restored stream does not).
func sameStream(a, b mdes.StreamSnapshot) bool {
	if a.Ticks != b.Ticks || a.Emitted != b.Emitted || len(a.Windows) != len(b.Windows) {
		return false
	}
	for name, w := range a.Windows {
		v, ok := b.Windows[name]
		if !ok || len(v) != len(w) {
			return false
		}
		for i := range w {
			if w[i] != v[i] {
				return false
			}
		}
	}
	return true
}
