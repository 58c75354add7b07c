package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Internal cluster endpoints, mounted by the serve layer on every replica.
const (
	// HandoffPath receives one tenant's frozen session record.
	HandoffPath = "/v1/cluster/handoff"
	// UpdatePath receives peer announcements (hello on join, leave on
	// drain) that adjust the receiver's membership view.
	UpdatePath = "/v1/cluster/update"
	// ReplicatePath receives one tenant's warm-standby record copy. Same
	// record format and idempotency key as HandoffPath, but the receiver
	// persists the record in its standby store instead of installing a live
	// session — ownership does not move with a replica.
	ReplicatePath = "/v1/cluster/replicate"
)

// Handoff is one encoded session record in flight to a peer: a migration
// (HandoffPath) or a warm-standby copy (ReplicatePath). Body is opaque here
// (internal/record owns the format, and cluster stays ignorant of session
// internals) and is POSTed as is. Ticks is the record's stream position and
// the idempotency key: a receiver that already holds state at >= Ticks
// treats the record as a duplicate and answers 200 without touching
// anything, which is what makes retries and crossed deliveries safe. Here it
// orders coalescing in ReplQueue.
type Handoff struct {
	Tenant string
	Ticks  int
	Body   []byte
}

// PeerUpdate is a peer announcement POSTed to UpdatePath.
//
//   - Kind "hello": the sender just (re)joined. The receiver marks it
//     Alive and replies with the tenants it currently holds that the
//     sender now owns, so the sender can block them as pending until the
//     receiver ships them over.
//   - Kind "leave": the sender is draining. The receiver marks it Gone and
//     records Tenants — the sessions the sender is about to ship to this
//     receiver — as pending, so a tick that races ahead of its handoff
//     waits (503) instead of fresh-starting a divergent stream.
type PeerUpdate struct {
	Kind    string   `json:"kind"`
	From    string   `json:"from"`
	Tenants []string `json:"tenants,omitempty"`
}

// PeerUpdateReply is the response to a PeerUpdate; Tenants is only set for
// hello (see PeerUpdate).
type PeerUpdateReply struct {
	Tenants []string `json:"tenants,omitempty"`
}

// Sender ships handoffs and updates to peers, retrying transient failures
// with exponential backoff. A 503 with Retry-After (the receiver is busy or
// itself waiting on a pending migration) honours the hint. Senders hold no
// locks — the serve layer freezes sessions first, then ships.
type Sender struct {
	HTTPClient *http.Client
	// MaxAttempts per Send/SendUpdate (default 5).
	MaxAttempts int
	// BaseDelay is the first retry delay, doubling per attempt (default
	// 50ms, capped at 2s).
	BaseDelay time.Duration
	// Sleep replaces time sleeping in tests.
	Sleep func(time.Duration)
}

func (s *Sender) client() *http.Client {
	if s.HTTPClient != nil {
		return s.HTTPClient
	}
	return http.DefaultClient
}

func (s *Sender) attempts() int {
	if s.MaxAttempts > 0 {
		return s.MaxAttempts
	}
	return 5
}

func (s *Sender) sleep(ctx context.Context, d time.Duration) error {
	if s.Sleep != nil {
		s.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff returns the delay before retry attempt (0-based), honouring a
// Retry-After hint when it is longer.
func (s *Sender) backoff(attempt int, hint time.Duration) time.Duration {
	base := s.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	d := base << attempt
	if max := 2 * time.Second; d > max {
		d = max
	}
	if hint > d {
		d = hint
	}
	return d
}

// Send ships one handoff to peer, retrying until it is acknowledged or
// attempts are exhausted. Acknowledgement (200) means the receiver has the
// state durable (installed or recognised as a duplicate) — only then may
// the caller delete its local copy.
func (s *Sender) Send(ctx context.Context, peer string, h Handoff) error {
	return s.SendTo(ctx, peer, HandoffPath, h)
}

// SendTo ships one record to an explicit endpoint on peer:
// HandoffPath moves ownership, ReplicatePath feeds the peer's warm-standby
// store. Retry semantics are identical — both receivers are idempotent on
// the Ticks key, so redelivery is always safe.
func (s *Sender) SendTo(ctx context.Context, peer, path string, h Handoff) error {
	var lastErr error
	for attempt := 0; attempt < s.attempts(); attempt++ {
		if attempt > 0 {
			hint := retryAfterOf(lastErr)
			if err := s.sleep(ctx, s.backoff(attempt-1, hint)); err != nil {
				return err
			}
		}
		lastErr = s.post(ctx, peer+path, "application/octet-stream", h.Body, nil)
		if lastErr == nil {
			return nil
		}
		if ctx.Err() != nil || isTerminal(lastErr) {
			return fmt.Errorf("cluster: handoff %s to %s: %w", h.Tenant, peer, lastErr)
		}
	}
	return fmt.Errorf("cluster: handoff %s to %s: %w", h.Tenant, peer, lastErr)
}

// SendUpdate posts one peer announcement and decodes the reply. Updates are
// advisory (the prober converges the view anyway) so they retry less hard
// than handoffs.
func (s *Sender) SendUpdate(ctx context.Context, peer string, u PeerUpdate) (PeerUpdateReply, error) {
	body, err := json.Marshal(u)
	if err != nil {
		return PeerUpdateReply{}, fmt.Errorf("cluster: encode update: %w", err)
	}
	var reply PeerUpdateReply
	var lastErr error
	for attempt := 0; attempt < s.attempts(); attempt++ {
		if attempt > 0 {
			if err := s.sleep(ctx, s.backoff(attempt-1, retryAfterOf(lastErr))); err != nil {
				return PeerUpdateReply{}, err
			}
		}
		reply = PeerUpdateReply{}
		lastErr = s.post(ctx, peer+UpdatePath, "application/json", body, &reply)
		if lastErr == nil {
			return reply, nil
		}
		if ctx.Err() != nil || isTerminal(lastErr) {
			return PeerUpdateReply{}, fmt.Errorf("cluster: update %s: %w", peer, lastErr)
		}
	}
	return PeerUpdateReply{}, fmt.Errorf("cluster: update %s: %w", peer, lastErr)
}

// RetryableError is a non-2xx response worth retrying, carrying the
// server's Retry-After hint when it sent one.
type RetryableError struct {
	Status     int
	RetryAfter time.Duration
}

func (e *RetryableError) Error() string {
	return fmt.Sprintf("cluster: peer answered %d (retry-after %s)", e.Status, e.RetryAfter)
}

func retryAfterOf(err error) time.Duration {
	var re *RetryableError
	if errors.As(err, &re) {
		return re.RetryAfter
	}
	return 0
}

// terminalError marks a response that retrying cannot fix (a 4xx other
// than 429: the peer understood the request and refused it).
type terminalError struct{ err error }

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

func isTerminal(err error) bool {
	var te *terminalError
	return errors.As(err, &te)
}

// post performs one POST. Connection errors and 5xx/429 are retryable; a
// 4xx other than 429 is terminal (the peer understood and refused).
func (s *Sender) post(ctx context.Context, url, contentType string, body []byte, reply any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := s.client().Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		_ = resp.Body.Close() // response already consumed; nothing to report
	}()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		if reply != nil {
			if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(reply); err != nil {
				return fmt.Errorf("cluster: decode reply: %w", err)
			}
		}
		return nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		return &RetryableError{Status: resp.StatusCode, RetryAfter: ParseRetryAfter(resp.Header.Get("Retry-After"))}
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &terminalError{fmt.Errorf("cluster: peer answered %d: %s", resp.StatusCode, bytes.TrimSpace(msg))}
	}
}

// ParseRetryAfter parses a Retry-After header's delay-seconds form. Zero
// for absent or unparseable (the HTTP-date form is not worth supporting for
// an internal protocol).
func ParseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
