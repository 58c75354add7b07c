package serve

import (
	"bytes"
	"encoding/json"
	"testing"
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
