package cluster

import (
	"context"
	"sync"
	"testing"
	"time"
)

func replHandoff(tenant string, ticks int) Handoff {
	return Handoff{Tenant: tenant, Ticks: ticks, Body: []byte("record")}
}

// TestReplQueueCoalescesNewestPerTenant: two offers for one tenant must ship
// once, with the newest record.
func TestReplQueueCoalescesNewestPerTenant(t *testing.T) {
	shipped := make(chan Handoff, 16)
	gate := make(chan struct{})
	q := &ReplQueue{Ship: func(ctx context.Context, peer string, h Handoff) error {
		<-gate
		shipped <- h
		return nil
	}}
	q.Start([]string{"http://self", "http://peer"}, "http://self")
	defer q.Stop()

	if !q.Offer("http://peer", replHandoff("a", 6)) {
		t.Fatal("first offer refused")
	}
	if !q.Offer("http://peer", replHandoff("a", 12)) {
		t.Fatal("coalescing offer refused")
	}
	close(gate)
	h := <-shipped
	if h.Ticks != 12 {
		t.Fatalf("shipped ticks = %d, want the coalesced 12", h.Ticks)
	}
	select {
	case extra := <-shipped:
		t.Fatalf("second ship %+v after coalescing", extra)
	case <-time.After(50 * time.Millisecond):
	}
	st := q.Stats()
	if st.Enqueued != 1 || st.Coalesced != 1 || st.Shipped != 1 {
		t.Fatalf("stats = %+v, want 1 enqueued / 1 coalesced / 1 shipped", st)
	}
}

// TestReplQueueStaleOfferDoesNotRegress: coalescing keeps the record with
// more ticks even when a stale one arrives second (reordered persists during
// an adoption race must not roll the standby back).
func TestReplQueueStaleOfferDoesNotRegress(t *testing.T) {
	shipped := make(chan Handoff, 16)
	gate := make(chan struct{})
	q := &ReplQueue{Ship: func(ctx context.Context, peer string, h Handoff) error {
		<-gate
		shipped <- h
		return nil
	}}
	q.Start([]string{"http://self", "http://peer"}, "http://self")
	defer q.Stop()

	q.Offer("http://peer", replHandoff("a", 12))
	q.Offer("http://peer", replHandoff("a", 6)) // stale duplicate
	close(gate)
	if h := <-shipped; h.Ticks != 12 {
		t.Fatalf("shipped ticks = %d, want 12 (stale 6 must not regress)", h.Ticks)
	}
}

// TestReplQueueDropsNotBlocks is the saturation contract: with the drainer
// wedged and the queue full, Offer must return immediately (dropping, not
// blocking) — it is called under session mutexes on the serve layer.
func TestReplQueueDropsNotBlocks(t *testing.T) {
	wedge := make(chan struct{})
	started := make(chan struct{}, 16)
	q := &ReplQueue{
		Cap: 2,
		Ship: func(ctx context.Context, peer string, h Handoff) error {
			started <- struct{}{}
			select {
			case <-wedge:
			case <-ctx.Done():
			}
			return ctx.Err()
		},
	}
	q.Start([]string{"http://self", "http://peer"}, "http://self")
	defer q.Stop()
	defer close(wedge)

	// Wedge the drainer inside a ship first, then fill the buffer behind it.
	q.Offer("http://peer", replHandoff("a", 1))
	<-started
	q.Offer("http://peer", replHandoff("b", 1))
	q.Offer("http://peer", replHandoff("c", 1))

	done := make(chan bool, 1)
	go func() { done <- q.Offer("http://peer", replHandoff("overflow", 1)) }()
	select {
	case accepted := <-done:
		if accepted {
			t.Fatal("offer accepted into a full queue")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Offer blocked on a saturated queue")
	}
	if st := q.Stats(); st.Dropped == 0 {
		t.Fatalf("stats = %+v, want dropped > 0", st)
	}

	// A tenant already queued must still coalesce while the queue is full.
	if !q.Offer("http://peer", replHandoff("c", 9)) {
		t.Fatal("coalescing offer refused on a full queue")
	}
}

// TestReplQueueUnknownPeerDropped: offers to peers outside the configured
// set (or to self) are counted drops, not panics or silent success.
func TestReplQueueUnknownPeerDropped(t *testing.T) {
	q := &ReplQueue{Ship: func(context.Context, string, Handoff) error { return nil }}
	q.Start([]string{"http://self", "http://peer"}, "http://self")
	defer q.Stop()
	if q.Offer("http://stranger", replHandoff("a", 1)) {
		t.Fatal("offer to unknown peer accepted")
	}
	if q.Offer("http://self", replHandoff("a", 1)) {
		t.Fatal("offer to self accepted")
	}
	if st := q.Stats(); st.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2", st.Dropped)
	}
}

// TestReplQueueLagObserved: with an injected clock, shipping reports the
// enqueue→ack lag of each record.
func TestReplQueueLagObserved(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(0, 0)
	var lags []time.Duration
	gate := make(chan struct{})
	q := &ReplQueue{
		Ship: func(ctx context.Context, peer string, h Handoff) error { <-gate; return nil },
		Now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		},
		OnLag: func(d time.Duration) {
			mu.Lock()
			lags = append(lags, d)
			mu.Unlock()
		},
	}
	q.Start([]string{"http://self", "http://peer"}, "http://self")
	defer q.Stop()

	q.Offer("http://peer", replHandoff("a", 6))
	mu.Lock()
	now = now.Add(250 * time.Millisecond)
	mu.Unlock()
	close(gate)

	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(lags)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lag observation arrived")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if lags[0] != 250*time.Millisecond {
		t.Fatalf("lag = %s, want 250ms", lags[0])
	}
}

// TestRingSuccessorAmong: the standby is deterministic, distinct from the
// owner, respects eligibility, and is stable against unrelated peer loss.
func TestRingSuccessorAmong(t *testing.T) {
	peers := []string{"http://a", "http://b", "http://c", "http://d"}
	ring, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"plant-a", "plant-b", "plant-c", "tenant-007"} {
		owner := ring.Owner(tenant)
		standby := ring.SuccessorAmong(tenant, owner, nil)
		if standby == "" || standby == owner {
			t.Fatalf("tenant %q: standby %q (owner %q)", tenant, standby, owner)
		}
		// Deterministic: a second ring from the same peers agrees.
		ring2, _ := NewRing([]string{"http://d", "http://c", "http://b", "http://a"}, 0)
		if got := ring2.SuccessorAmong(tenant, owner, nil); got != standby {
			t.Fatalf("tenant %q: standby differs across ring builds: %q vs %q", tenant, got, standby)
		}
		// Losing a peer that is neither owner nor standby leaves the pair.
		surviving := func(p string) bool {
			for _, q := range peers {
				if q == p && p != pickOther(peers, owner, standby) {
					return true
				}
			}
			return false
		}
		if got := ring.SuccessorAmong(tenant, owner, surviving); got != standby {
			t.Fatalf("tenant %q: standby moved (%q→%q) when an unrelated peer left", tenant, standby, got)
		}
		// The standby itself failing moves the copy to the next survivor,
		// never back to the owner.
		if got := ring.SuccessorAmong(tenant, owner, func(p string) bool { return p != standby }); got == owner || got == standby || got == "" {
			t.Fatalf("tenant %q: standby-of-standby = %q", tenant, got)
		}
	}
	// Single eligible peer: nowhere to replicate.
	solo, _ := NewRing([]string{"http://a"}, 0)
	if got := solo.SuccessorAmong("t", "http://a", nil); got != "" {
		t.Fatalf("solo ring standby = %q, want none", got)
	}
}

// pickOther returns a peer that is neither a nor b.
func pickOther(peers []string, a, b string) string {
	for _, p := range peers {
		if p != a && p != b {
			return p
		}
	}
	return ""
}
