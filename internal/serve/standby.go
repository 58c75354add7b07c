package serve

import (
	"errors"
	"log"
	"net/http"
	"strings"

	"mdes/internal/cluster"
	"mdes/internal/record"
)

// Warm-standby replication: after every durable local snapshot save, the
// owner asynchronously ships the same record bytes to the tenant's ring
// successor, which stores them verbatim in a standby store keyed by
// (owner, tenant). The copy is
// pure insurance — it is never served while the owner is reachable — and
// buys exactly one thing: when the owner's disk is lost (or the owner is
// partitioned away), the standby can promote the tenant and keep the stream
// alive from the replicated state instead of answering 503 until a human
// restores a backup.
//
// Invariants (tested by the chaos soaks, documented in DESIGN.md §8):
//
//   - The standby never serves a tenant while its owner is anything but
//     Down. The promotion check runs per request against the live
//     membership view, so the instant the owner is probed back to Alive the
//     standby stops accepting and redirects.
//   - Promotion is idempotent and races safely: installs go through the
//     registry with the same more-ticks-wins rule as handoffs.
//   - Adopted state ships home when the owner returns, through the normal
//     handoff protocol (idempotent), announced first so the owner holds
//     those tenants pending instead of serving its own stale copy.
//   - Replication is asynchronous and lossy-by-design under pressure: a
//     dropped copy degrades the standby's freshness, never the tick path.
//     The local snapshot remains the durable source of truth.

// replicaOf resolves, under the current view, the tenant's ring owner and
// the peer its standby copy ships to: the owner's ring successor among Alive
// peers other than this replica. Both are "" unless replication is on;
// target is "" when there is nowhere to replicate. The owner is the
// tenant's ring OWNER, not necessarily this replica: receivers key their
// stores by it, so a copy of adopted state forwarded by a standby still
// files under the true owner and ships home when that owner revives.
func (s *Server) replicaOf(tenant string) (owner, target string) {
	cn := s.cluster
	if cn == nil || s.repl == nil {
		return "", ""
	}
	states := cn.mem.Snapshot()
	owner = cn.ring.OwnerAmong(tenant, func(p string) bool {
		st := states[p]
		return st == cluster.Alive || st == cluster.Down
	})
	if owner == "" {
		owner = cn.self
	}
	target = cn.ring.SuccessorAmong(tenant, owner, func(p string) bool {
		return p != cn.self && states[p] == cluster.Alive
	})
	return owner, target
}

// offer hands one encoded record to the replication queue for target, as
// resolved by replicaOf ("" skips). Offer is a bounded map update — no IO,
// no blocking — so it is safe under the session mutex; the ship happens on
// the queue's drainer goroutines.
func (s *Server) offer(target, tenant string, ticks int, frame []byte) {
	if target != "" {
		s.repl.Offer(target, cluster.Handoff{Tenant: tenant, Ticks: ticks, Body: frame})
	}
}

// handleReplicate is POST /v1/cluster/replicate: persist one peer's record
// in the standby store, keyed by the owner it names. Same framing and
// Ticks-idempotency as a handoff, but no session is installed and ownership
// does not move. Only the record's header is decoded; the body is stored
// verbatim after the CRC check.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil || s.opts.StandbyDir == "" {
		// Terminal on purpose: a peer without a standby store will never
		// accept copies, so the sender must stop retrying.
		http.Error(w, "standby store not configured", http.StatusNotFound)
		return
	}
	body, ok := s.readClusterBody(w, r)
	if !ok {
		return
	}
	h, trailing, err := record.DecodeHeader(body)
	if errors.Is(err, record.ErrTorn) || (err == nil && trailing) {
		// Transmission damage: the sender's copy is intact, so ask for a
		// retry rather than answering with a terminal 4xx.
		s.retryAfterHeader(w)
		http.Error(w, record.ErrTorn.Error(), http.StatusServiceUnavailable)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if h.Owner == "" {
		http.Error(w, "replicate without owner", http.StatusBadRequest)
		return
	}
	if _, old, ok, err := standbyCopy(s.standby, h.Owner, h.Tenant); err != nil {
		s.met.replStoreErrors.Add(1)
		s.retryAfterHeader(w)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	} else if ok && old.Stream.Ticks >= h.Stream.Ticks {
		// Duplicate or reordered ship: the held copy is as fresh or fresher.
		w.WriteHeader(http.StatusOK)
		return
	}
	if err := s.standby.write(record.StandbyFile(h.Owner, h.Tenant), body); err != nil {
		s.met.replStoreErrors.Add(1)
		s.retryAfterHeader(w)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	s.met.replReceived.Add(1)
	w.WriteHeader(http.StatusOK)
}

// tryAdopt decides whether this replica may serve tenant in place of its
// Down owner, installing a session from the standby store if needed. True
// means "proceed: a resident session exists and is marked adopted". The
// conditions are strict on purpose — every one of them guards the
// single-writer invariant:
//
//   - a standby store must be configured (promotion is opt-in),
//   - the owner must be Down in THIS replica's live view (the check runs
//     per request, so recovery is noticed at the next request),
//   - this replica must be the tenant's ring successor among Alive peers
//     (exactly one standby can promote, derived deterministically),
//   - replicated state must exist (no silent fresh starts: a tenant whose
//     copy was dropped stays 503 until its owner returns, same as a
//     tenant with no standby at all).
func (s *Server) tryAdopt(tenant, owner string) bool {
	cn := s.cluster
	if cn == nil || s.opts.StandbyDir == "" || owner == "" {
		return false
	}
	states := cn.mem.Snapshot()
	if states[owner] != cluster.Down {
		return false
	}
	standby := cn.ring.SuccessorAmong(tenant, owner, func(p string) bool {
		return states[p] == cluster.Alive
	})
	if standby != cn.self {
		return false
	}
	if sess := s.reg.get(tenant); sess != nil {
		// Already resident: either a previous request adopted it, or it was
		// restored from this replica's own snapshot of an earlier adoption.
		// (Re)mark it; a gone session means an eviction raced us — retry via
		// the install path below.
		sess.mu.Lock()
		if !sess.gone {
			sess.adopted = true
			sess.mu.Unlock()
			return true
		}
		sess.mu.Unlock()
	}
	data, _, ok, err := standbyCopy(s.standby, owner, tenant)
	if err != nil {
		s.met.replStoreErrors.Add(1)
		return false
	}
	if !ok {
		return false
	}
	rec, _, err := record.Decode(data)
	if err != nil {
		s.met.replStoreErrors.Add(1)
		return false
	}
	sess, err := s.restore(rec)
	if err != nil {
		s.met.replStoreErrors.Add(1)
		return false
	}
	sess.adopted, sess.dirty = true, true

	s.reg.mu.Lock()
	if existing := s.reg.sessions[tenant]; existing != nil {
		// Another request won the install race; serve through its session.
		s.reg.mu.Unlock()
		existing.mu.Lock()
		won := !existing.gone
		if won {
			existing.adopted = true
		}
		existing.mu.Unlock()
		return won
	}
	s.reg.sessions[tenant] = sess
	s.reg.mu.Unlock()

	s.met.replPromotions.Add(1)
	log.Printf("serve: promoted tenant %q from standby copy of %s at %d ticks", tenant, owner, rec.Stream.Ticks)
	return true
}

// adoptedCount counts resident adopted sessions (metrics gauge).
func (s *Server) adoptedCount() int {
	n := 0
	for _, sess := range s.reg.all() {
		sess.mu.Lock()
		if sess.adopted && !sess.gone {
			n++
		}
		sess.mu.Unlock()
	}
	return n
}

// standbyHeldCount counts standby copies across all owners (metrics gauge).
func (s *Server) standbyHeldCount() int {
	if s.opts.StandbyDir == "" {
		return 0
	}
	names, err := s.fs.ReadDir(s.opts.StandbyDir)
	if err != nil {
		return 0
	}
	n := 0
	for _, name := range names {
		if strings.HasSuffix(name, ".standby") {
			n++
		}
	}
	return n
}

// loadSnapshotNoted is loadSnapshot plus torn-snapshot observability: a
// torn snapshot is counted and logged, with the outcome it leads to. (It
// used to be fully silent; a disk-level corruption then looks exactly like a
// tenant that never existed, which costs someone a confused debugging
// session.)
func (s *Server) loadSnapshotNoted(tenant string) (record.Session, bool, error) {
	rec, ok, torn, err := loadSnapshot(s.snaps, tenant)
	switch {
	case torn && ok:
		s.met.snapshotTorn.Add(1)
		log.Printf("serve: snapshot for tenant %q has trailing bytes after an intact record; restoring at %d ticks", tenant, rec.Stream.Ticks)
	case torn:
		s.met.snapshotTorn.Add(1)
		log.Printf("serve: snapshot for tenant %q is torn or corrupt; serving will fresh-start from zero ticks", tenant)
	}
	return rec, ok, err
}
