package serve

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestTickMapReuseDropsStaleKeys pins that the handler's reused tick map
// carries nothing from one line to the next: a line missing a modelled
// sensor, sent right after a complete line in the same request, must still
// fail with ErrMisaligned instead of scoring with the earlier line's value.
func TestTickMapReuseDropsStaleKeys(t *testing.T) {
	_, hs, client := newTestServer(t, Options{})
	body := `{"a":"ON","b":"ON","c":"OFF"}` + "\n" + `{"a":"ON","b":"OFF"}` + "\n"
	status, text := postTicks(t, hs.URL, "stale", body)
	if status != http.StatusBadRequest || !strings.Contains(text, `"c" missing from tick 1`) {
		t.Fatalf("second line missing c: status %d, body %q", status, text)
	}
	info, err := client.Session(context.Background(), "stale")
	if err != nil {
		t.Fatal(err)
	}
	if info.Ticks != 1 {
		t.Fatalf("session at %d ticks, want 1 (only the complete line)", info.Ticks)
	}

	// Unit level: decoding into the reused map yields exactly the keys of
	// the current line.
	scratch, _, err := decodeTick([]byte(`{"a":"ON","b":"ON","c":"OFF"}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	tick, _, err := decodeTick([]byte(`{"a":"OFF"}`), scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(tick) != 1 || tick["a"] != "OFF" {
		t.Fatalf("reused map decoded to %v, want map[a:OFF]", tick)
	}
}

// TestTickMapReuseRejectsLikeFreshDecode pins that null and non-object lines
// are rejected exactly as with a fresh map per line: the same tick, skip and
// error from decodeTick, and the same HTTP answer after a complete line.
func TestTickMapReuseRejectsLikeFreshDecode(t *testing.T) {
	lines := []string{`null`, `[1,2]`, `"a"`, `7`, `true`, `{"a":1}`, `{"a":`, `{}`}
	for _, line := range lines {
		fresh, freshSkip, freshErr := decodeTick([]byte(line), nil)
		scratch := map[string]string{"a": "ON", "b": "ON", "c": "OFF"}
		reused, skip, err := decodeTick([]byte(line), scratch)
		if skip != freshSkip || (err == nil) != (freshErr == nil) ||
			(err != nil && err.Error() != freshErr.Error()) {
			t.Fatalf("%s: reused map gives skip=%v err=%v, fresh gives skip=%v err=%v",
				line, skip, err, freshSkip, freshErr)
		}
		if err == nil && ((reused == nil) != (fresh == nil) || len(reused) != len(fresh)) {
			t.Fatalf("%s: reused map gives %v, fresh gives %v", line, reused, fresh)
		}
	}

	_, hs, _ := newTestServer(t, Options{})
	for _, tc := range []struct{ line, want string }{
		{`null`, `missing from tick 1`},
		{`[1,2]`, `tick 1: json: cannot unmarshal array`},
		{`"ON"`, `tick 1: json: cannot unmarshal string`},
	} {
		tenant := "t" + tc.line[:1]
		body := `{"a":"ON","b":"ON","c":"OFF"}` + "\n" + tc.line + "\n"
		status, text := postTicks(t, hs.URL, tenant, body)
		if status != http.StatusBadRequest || !strings.Contains(text, tc.want) {
			t.Fatalf("%s after a complete line: status %d, body %q, want 400 with %q", tc.line, status, text, tc.want)
		}
	}
}

// postTicks posts an NDJSON body to one tenant's tick endpoint and returns
// the status and response body.
func postTicks(t *testing.T, base, tenant, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/streams/"+tenant+"/ticks", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(text)
}
