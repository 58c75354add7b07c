package record

import (
	"errors"
	"reflect"
	"testing"

	"mdes"
)

func sample() Session {
	return Session{
		Tenant: "plant-7",
		Model:  "default",
		Owner:  "http://replica-0:9090",
		Stream: mdes.StreamSnapshot{
			Ticks:   123,
			Emitted: 4,
			Windows: map[string][]string{"a": {"ON", "OFF"}, "b": {"OFF", "ON"}},
		},
		LastScore: 0.25,
		Degraded:  true,
	}
}

func TestRoundTrip(t *testing.T) {
	want := sample()
	data, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, trailing, err := Decode(data)
	if err != nil || trailing {
		t.Fatalf("Decode: trailing=%v err=%v", trailing, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mangled the record:\n got %+v\nwant %+v", got, want)
	}
	h, trailing, err := DecodeHeader(data)
	if err != nil || trailing {
		t.Fatalf("DecodeHeader: trailing=%v err=%v", trailing, err)
	}
	if h.Tenant != want.Tenant || h.Owner != want.Owner || h.Stream.Ticks != want.Stream.Ticks {
		t.Fatalf("header = %+v, want tenant/owner/ticks of %+v", h, want)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: the CRC must catch it.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xFF
	if _, _, err := Decode(bad); !errors.Is(err, ErrTorn) {
		t.Fatalf("corrupted frame decoded: err=%v", err)
	}
	// Truncate: short frame.
	if _, _, err := DecodeHeader(data[:len(data)-3]); !errors.Is(err, ErrTorn) {
		t.Fatalf("truncated frame decoded: err=%v", err)
	}
	// Trailing garbage after the frame must not be silently ignored.
	long := append(append([]byte(nil), data...), 'x')
	if _, trailing, err := Decode(long); err != nil || !trailing {
		t.Fatalf("frame with a trailing byte: trailing=%v err=%v, want reported", trailing, err)
	}
	if _, trailing, err := DecodeHeader(long); err != nil || !trailing {
		t.Fatalf("header of a frame with a trailing byte: trailing=%v err=%v, want reported", trailing, err)
	}
	// An intact frame must name a tenant.
	anon := sample()
	anon.Tenant = ""
	data, err = Encode(anon)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(data); err == nil || errors.Is(err, ErrTorn) {
		t.Fatalf("tenant-less record: err=%v, want a decode error", err)
	}
}

func TestFileNamesInvert(t *testing.T) {
	for _, tenant := range []string{"plant-7", "a/b", "../x", "ünï"} {
		if got, ok := SnapshotTenant(SnapshotFile(tenant)); !ok || got != tenant {
			t.Errorf("SnapshotTenant(SnapshotFile(%q)) = %q, %v", tenant, got, ok)
		}
		name := StandbyFile("http://a:1", tenant)
		if got, ok := StandbyTenant("http://a:1", name); !ok || got != tenant {
			t.Errorf("StandbyTenant(StandbyFile(%q)) = %q, %v", tenant, got, ok)
		}
		if _, ok := StandbyTenant("http://b:1", name); ok {
			t.Errorf("%s parsed as another owner's copy", name)
		}
		if _, ok := SnapshotTenant(name); ok {
			t.Errorf("standby file %s parsed as a snapshot", name)
		}
	}
	for _, foreign := range []string{".snap-123", ".snap", "zz.snap", "README"} {
		if _, ok := SnapshotTenant(foreign); ok {
			t.Errorf("foreign name %q parsed as a snapshot", foreign)
		}
	}
}
