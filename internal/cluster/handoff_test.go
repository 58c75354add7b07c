package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestSenderPostsBodyVerbatim: the sender ships the record bytes it is
// handed, untouched — the receiver's CRC check covers exactly what the
// owner encoded.
func TestSenderPostsBodyVerbatim(t *testing.T) {
	body := []byte("\x00\x01opaque record\xff")
	var got []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != ReplicatePath {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		got, _ = io.ReadAll(r.Body)
	}))
	defer srv.Close()

	s := &Sender{HTTPClient: srv.Client()}
	if err := s.SendTo(context.Background(), srv.URL, ReplicatePath, Handoff{Tenant: "t", Ticks: 1, Body: body}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("peer received %q, want %q", got, body)
	}
}

func TestSenderRetriesUntilAck(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != HandoffPath {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	var slept []time.Duration
	s := &Sender{
		HTTPClient: srv.Client(),
		BaseDelay:  time.Millisecond,
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
	}
	h := Handoff{Tenant: "t", Ticks: 5, Body: []byte("x")}
	if err := s.Send(context.Background(), srv.URL, h); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if len(slept) != 2 {
		t.Fatalf("sleeps = %v, want 2 backoffs", slept)
	}
}

func TestSenderHonorsRetryAfterHint(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	var slept []time.Duration
	s := &Sender{
		HTTPClient: srv.Client(),
		BaseDelay:  time.Millisecond,
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
	}
	err := s.Send(context.Background(), srv.URL, Handoff{Tenant: "t", Body: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != 2*time.Second {
		t.Fatalf("slept %v, want the server's 2s hint to win over the 1ms base", slept)
	}
}

func TestSenderTerminalOn4xx(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "no such model", http.StatusBadRequest)
	}))
	defer srv.Close()

	s := &Sender{HTTPClient: srv.Client(), BaseDelay: time.Millisecond, Sleep: func(time.Duration) {}}
	err := s.Send(context.Background(), srv.URL, Handoff{Tenant: "t", Body: []byte("x")})
	if err == nil {
		t.Fatal("4xx did not fail the send")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("4xx retried: %d attempts", got)
	}
}

func TestSendUpdateRoundTrip(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != UpdatePath {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		var u PeerUpdate
		if err := json.NewDecoder(r.Body).Decode(&u); err != nil {
			t.Errorf("decode update: %v", err)
		}
		if u.Kind != "hello" || u.From != "http://joiner:1" {
			t.Errorf("update = %+v", u)
		}
		_ = json.NewEncoder(w).Encode(PeerUpdateReply{Tenants: []string{"a", "b"}})
	}))
	defer srv.Close()

	s := &Sender{HTTPClient: srv.Client()}
	reply, err := s.SendUpdate(context.Background(), srv.URL, PeerUpdate{Kind: "hello", From: "http://joiner:1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Tenants) != 2 || reply.Tenants[0] != "a" {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestParseRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0}, {"3", 3 * time.Second}, {"0", 0}, {"-1", 0}, {"soon", 0},
	} {
		if got := ParseRetryAfter(tc.in); got != tc.want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
