// Package record is the one durable and wire form of a tenant session: the
// bytes a replica writes to its snapshot file are the bytes it offers to
// replication, POSTs to its standby, and the standby stores verbatim; a
// migration handoff is the same record addressed to the receiving owner.
//
// A record is one checkpoint frame (length + CRC-32 + payload) around the
// JSON of Session, so every reader tells an intact record from a torn or
// corrupted one the same way the training journal does.
package record

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"mdes"
	"mdes/internal/checkpoint"
)

// Session is the durable state of one tenant session: which model it runs,
// which replica owns it on the ring, and the stream's rolling window.
type Session struct {
	Tenant string `json:"tenant"`
	Model  string `json:"model"`
	// Owner is the tenant's ring owner when the record was encoded (empty
	// unless standby replication is on; restore ignores it). Standby stores
	// key copies by it, so a copy forwarded by a replica serving adopted
	// state still files under the true owner and ships home when that owner
	// revives; a handoff names its receiver.
	Owner  string              `json:"owner,omitempty"`
	Stream mdes.StreamSnapshot `json:"stream"`
	// LastScore and Degraded carry the degraded-mode serving state: a
	// session restored (or handed to another replica) while a scoring fault
	// is in effect must keep answering with the same last valid score, or a
	// migrated stream's output would diverge from an unmigrated one.
	LastScore float64 `json:"last_score,omitempty"`
	Degraded  bool    `json:"degraded,omitempty"`
}

// Header is the part of a record the idempotency checks read: who the
// record is for and how far its stream has got. Decoding it skips the
// windows, which are nearly all of a record's bytes.
type Header struct {
	Tenant string `json:"tenant"`
	Owner  string `json:"owner"`
	Stream struct {
		Ticks int `json:"ticks"`
	} `json:"stream"`
}

// ErrTorn reports data that holds no intact frame: short, or failing its
// CRC. On the wire it is transmission damage (the sender's copy is intact);
// on disk it is a write cut short.
var ErrTorn = errors.New("record: frame truncated or corrupt")

var errNoTenant = errors.New("record: no tenant")

// Encode frames the record: the only place session state is serialized.
func Encode(s Session) ([]byte, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("record: encode %q: %w", s.Tenant, err)
	}
	return checkpoint.AppendFrame(make([]byte, 0, len(payload)+8), payload), nil
}

// Decode parses the record in data's first frame. trailing reports bytes
// after that frame: a snapshot file restores anyway (and says so), a wire
// body must be exactly one frame. No intact frame is ErrTorn; an intact
// frame that does not decode is a plain error.
func Decode(data []byte) (s Session, trailing bool, err error) {
	payloads, valid, _ := checkpoint.Frames(data)
	if len(payloads) == 0 {
		return Session{}, false, ErrTorn
	}
	if err := json.Unmarshal(payloads[0], &s); err != nil {
		return Session{}, false, fmt.Errorf("record: decode: %w", err)
	}
	if s.Tenant == "" {
		return Session{}, false, errNoTenant
	}
	return s, len(payloads) > 1 || valid != len(data), nil
}

// DecodeHeader is Decode for the Header alone, with the same frame checks.
func DecodeHeader(data []byte) (h Header, trailing bool, err error) {
	payloads, valid, _ := checkpoint.Frames(data)
	if len(payloads) == 0 {
		return Header{}, false, ErrTorn
	}
	if err := json.Unmarshal(payloads[0], &h); err != nil {
		return Header{}, false, fmt.Errorf("record: decode header: %w", err)
	}
	if h.Tenant == "" {
		return Header{}, false, errNoTenant
	}
	return h, len(payloads) > 1 || valid != len(data), nil
}

// SnapshotFile names a tenant's snapshot file: the hex-encoded tenant plus
// ".snap", so arbitrary names (slashes, dots, unicode) cannot escape the
// snapshot directory or collide after sanitisation.
func SnapshotFile(tenant string) string {
	return hex.EncodeToString([]byte(tenant)) + ".snap"
}

// StandbyFile names the standby copy of tenant held for owner. Both are
// hex-encoded and joined with "-", which cannot appear in hex, so the
// mapping is bijective and one flat directory holds every owner's copies.
func StandbyFile(owner, tenant string) string {
	return hex.EncodeToString([]byte(owner)) + "-" + hex.EncodeToString([]byte(tenant)) + ".standby"
}

// SnapshotTenant inverts SnapshotFile: the tenant whose snapshot file is
// named name, or false for any other name.
func SnapshotTenant(name string) (string, bool) {
	return unhex(name, "", ".snap")
}

// StandbyTenant inverts StandbyFile for owner's copies: the tenant whose
// copy held for owner is named name, or false for any other name.
func StandbyTenant(owner, name string) (string, bool) {
	return unhex(name, hex.EncodeToString([]byte(owner))+"-", ".standby")
}

// unhex decodes the tenant from a name of the form prefix + hex + ext.
func unhex(name, prefix, ext string) (string, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return "", false
	}
	hexName, ok := strings.CutSuffix(rest, ext)
	if !ok || hexName == "" {
		return "", false
	}
	raw, err := hex.DecodeString(hexName)
	if err != nil {
		return "", false
	}
	return string(raw), true
}
