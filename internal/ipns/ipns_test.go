package ipns

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cid"
	"repro/internal/multicodec"
	"repro/internal/peer"
)

var epoch = time.Date(2022, 1, 2, 0, 0, 0, 0, time.UTC)

func testIdentity(seed int64) peer.Identity {
	return peer.MustNewIdentity(rand.New(rand.NewSource(seed)))
}

func TestRecordRoundTrip(t *testing.T) {
	ident := testIdentity(1)
	v := cid.Sum(multicodec.DagPB, []byte("website v1"))
	r := NewRecord(ident, v, 3, epoch, 0)
	back, err := Unmarshal(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Value.Equal(v) || back.Seq != 3 {
		t.Errorf("round trip = %+v", back)
	}
	if err := back.Validate(Name(ident.ID), epoch.Add(time.Hour)); err != nil {
		t.Errorf("Validate after round trip: %v", err)
	}
}

func TestValidateRejectsWrongName(t *testing.T) {
	ident, other := testIdentity(1), testIdentity(2)
	r := NewRecord(ident, cid.Sum(multicodec.Raw, []byte("x")), 1, epoch, 0)
	if err := r.Validate(Name(other.ID), epoch); err != ErrWrongName {
		t.Errorf("err = %v, want ErrWrongName", err)
	}
}

func TestValidateRejectsTamperedValue(t *testing.T) {
	ident := testIdentity(3)
	r := NewRecord(ident, cid.Sum(multicodec.Raw, []byte("v1")), 1, epoch, 0)
	r.Value = cid.Sum(multicodec.Raw, []byte("evil"))
	if err := r.Validate(Name(ident.ID), epoch); err == nil {
		t.Error("tampered value should fail validation")
	}
}

func TestValidateRejectsExpired(t *testing.T) {
	ident := testIdentity(4)
	r := NewRecord(ident, cid.Sum(multicodec.Raw, []byte("x")), 1, epoch, time.Hour)
	if err := r.Validate(Name(ident.ID), epoch.Add(2*time.Hour)); err != ErrExpired {
		t.Errorf("err = %v, want ErrExpired", err)
	}
}

func TestValidateRejectsGarbageKey(t *testing.T) {
	r := Record{}
	if err := r.Validate([]byte("name"), epoch); err != ErrMalformed {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	ident := testIdentity(5)
	good := NewRecord(ident, cid.Sum(multicodec.Raw, []byte("x")), 1, epoch, 0).Marshal()
	for _, cut := range []int{0, 1, 5, len(good) / 2, len(good) - 1} {
		if _, err := Unmarshal(good[:cut]); err == nil {
			t.Errorf("truncation at %d should fail", cut)
		}
	}
	if _, err := Unmarshal(append(good, 0)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestValidatorFor(t *testing.T) {
	ident := testIdentity(6)
	now := epoch
	validator := ValidatorFor(func() time.Time { return now })
	r := NewRecord(ident, cid.Sum(multicodec.Raw, []byte("site")), 1, epoch, time.Hour)
	if err := validator(Name(ident.ID), r.Marshal()); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	if err := validator(Name(testIdentity(7).ID), r.Marshal()); err == nil {
		t.Error("record under wrong name accepted")
	}
	now = epoch.Add(2 * time.Hour)
	if err := validator(Name(ident.ID), r.Marshal()); err == nil {
		t.Error("expired record accepted")
	}
	if err := validator(Name(ident.ID), []byte("junk")); err == nil {
		t.Error("junk accepted")
	}
}

func TestMutabilityViaSequence(t *testing.T) {
	// The §3.3 workflow: the name stays fixed while the value changes.
	ident := testIdentity(8)
	name := Name(ident.ID)
	v1 := NewRecord(ident, cid.Sum(multicodec.Raw, []byte("v1")), 1, epoch, 0)
	v2 := NewRecord(ident, cid.Sum(multicodec.Raw, []byte("v2")), 2, epoch, 0)
	if err := v1.Validate(name, epoch); err != nil {
		t.Fatal(err)
	}
	if err := v2.Validate(name, epoch); err != nil {
		t.Fatal(err)
	}
	if v2.Seq <= v1.Seq {
		t.Error("newer records must carry higher sequence numbers")
	}
	if v1.Value.Equal(v2.Value) {
		t.Error("values should differ across updates")
	}
}

func TestQuickRoundTripValidate(t *testing.T) {
	ident := testIdentity(9)
	f := func(content []byte, seq uint64) bool {
		seq &= 1<<63 - 1 // spec limits varints to 63 bits
		r := NewRecord(ident, cid.Sum(multicodec.Raw, content), seq, epoch, 0)
		back, err := Unmarshal(r.Marshal())
		if err != nil {
			return false
		}
		return back.Validate(Name(ident.ID), epoch) == nil && back.Seq == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// FuzzIPNSUnmarshal feeds arbitrary bytes to the record parser: it
// never panics, and whatever it accepts marshals back to the same
// bytes.
func FuzzIPNSUnmarshal(f *testing.F) {
	for i, v := range []cid.Cid{cid.Sum(multicodec.DagPB, []byte("website v1")), cid.Sum(multicodec.Raw, []byte("x"))} {
		good := NewRecord(testIdentity(int64(i+1)), v, uint64(i+3), epoch, 0).Marshal()
		f.Add(good)
		for _, cut := range []int{0, 1, 5, len(good) / 2, len(good) - 1} {
			f.Add(good[:cut])
		}
		f.Add(append(good, 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Unmarshal(data)
		if err != nil {
			return
		}
		if back := r.Marshal(); !bytes.Equal(back, data) {
			t.Fatalf("Unmarshal(%x) marshals back to %x", data, back)
		}
	})
}
