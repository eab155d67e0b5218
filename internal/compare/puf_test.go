package compare

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestEvaluateDeterministic(t *testing.T) {
	p := newPUF()
	if p.evaluate(42) != p.evaluate(42) {
		t.Error("PUF response not stable")
	}
	if p.evaluate(42) == p.evaluate(43) {
		t.Error("distinct challenges collide")
	}
}

func TestUnclonability(t *testing.T) {
	// Two dies answer the same challenge differently (with overwhelming
	// probability over many challenges).
	a, b := newPUF(), newPUF()
	same := 0
	for ch := uint64(0); ch < 64; ch++ {
		if a.evaluate(ch) == b.evaluate(ch) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/64 responses collide across dies", same)
	}
}

func TestAttestRightDevice(t *testing.T) {
	dev := newPUF()
	db := enroll(dev, 8)
	for i := 0; i < 8; i++ {
		if err := pufAttest(db, dev.evaluate); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if err := pufAttest(db, dev.evaluate); !errors.Is(err, errCRPExhausted) {
		t.Errorf("9th round: %v, want errCRPExhausted", err)
	}
}

func TestDeploymentCoupling(t *testing.T) {
	// THE Table 1 drawback: a database enrolled on the developer's bench
	// device is useless on the device the cloud user actually rents.
	benchDevice := newPUF()
	rentedDevice := newPUF()
	db := enroll(benchDevice, 4)
	if err := pufAttest(db, rentedDevice.evaluate); !errors.Is(err, errPUFMismatch) {
		t.Errorf("attestation against a different die: %v, want errPUFMismatch", err)
	}
}

func TestCRPsAreSingleUse(t *testing.T) {
	dev := newPUF()
	db := enroll(dev, 2)
	ch, err := db.nextChallenge()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.verify(dev.evaluate(ch)); err != nil {
		t.Fatal(err)
	}
	// Replaying the same response against the next slot fails — the next
	// CRP has a different challenge.
	if err := db.verify(dev.evaluate(ch)); !errors.Is(err, errPUFMismatch) {
		t.Errorf("replayed response: %v, want errPUFMismatch", err)
	}
}

func TestForgedResponseRejected(t *testing.T) {
	dev := newPUF()
	db := enroll(dev, 1)
	if err := pufAttest(db, func(ch uint64) uint64 { return ch ^ 0xDEAD }); !errors.Is(err, errPUFMismatch) {
		t.Errorf("forged response: %v", err)
	}
}

func TestPropertyChallengeSensitivity(t *testing.T) {
	p := newPUF()
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return p.evaluate(a) != p.evaluate(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
