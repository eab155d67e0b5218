package compare

import (
	"errors"
	"testing"

	"salus/internal/cryptoutil"
)

type shefRig struct {
	mfr *shefManufacturer
	dev *shefDevice
	ca  *shefDeveloperCA
}

func newShefRig(t testing.TB) *shefRig {
	t.Helper()
	mfr, err := newShefManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	dev, err := mfr.manufactureDevice()
	if err != nil {
		t.Fatal(err)
	}
	ca, err := newShefDeveloperCA()
	if err != nil {
		t.Fatal(err)
	}
	return &shefRig{mfr: mfr, dev: dev, ca: ca}
}

func TestAttestationChainVerifies(t *testing.T) {
	r := newShefRig(t)
	digest := cryptoutil.Digest([]byte("bitstream"))
	nonce := cryptoutil.RandomKey(16)
	att := r.dev.attestCL(digest, nonce, r.ca.endorse(digest))
	if err := shefVerify(r.mfr.pub, r.ca.pub, nonce, att); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsWrongRoot(t *testing.T) {
	r := newShefRig(t)
	other, err := newShefManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	digest := cryptoutil.Digest([]byte("b"))
	nonce := cryptoutil.RandomKey(16)
	att := r.dev.attestCL(digest, nonce, r.ca.endorse(digest))
	if err := shefVerify(other.pub, r.ca.pub, nonce, att); !errors.Is(err, errShefBadCert) {
		t.Errorf("err = %v", err)
	}
}

func TestVerifyRejectsStaleNonce(t *testing.T) {
	r := newShefRig(t)
	digest := cryptoutil.Digest([]byte("b"))
	att := r.dev.attestCL(digest, []byte("nonce-1"), r.ca.endorse(digest))
	if err := shefVerify(r.mfr.pub, r.ca.pub, []byte("nonce-2"), att); !errors.Is(err, errShefBadSignature) {
		t.Errorf("replayed attestation: %v", err)
	}
}

func TestVerifyRejectsUnendorsedBitstream(t *testing.T) {
	// A malicious shell loads its own CL: the device signs honestly, but
	// the developer CA never endorsed that digest.
	r := newShefRig(t)
	evil := cryptoutil.Digest([]byte("evil bitstream"))
	good := cryptoutil.Digest([]byte("good bitstream"))
	nonce := cryptoutil.RandomKey(16)
	att := r.dev.attestCL(evil, nonce, r.ca.endorse(good))
	if err := shefVerify(r.mfr.pub, r.ca.pub, nonce, att); !errors.Is(err, errShefBadBitstream) {
		t.Errorf("unendorsed CL: %v", err)
	}
}

func TestVerifyRejectsForgedDevice(t *testing.T) {
	// A device fabricated outside the manufacturer's chain cannot attest.
	r := newShefRig(t)
	rogueMfr, err := newShefManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	rogueDev, err := rogueMfr.manufactureDevice()
	if err != nil {
		t.Fatal(err)
	}
	digest := cryptoutil.Digest([]byte("b"))
	nonce := cryptoutil.RandomKey(16)
	att := rogueDev.attestCL(digest, nonce, r.ca.endorse(digest))
	if err := shefVerify(r.mfr.pub, r.ca.pub, nonce, att); !errors.Is(err, errShefBadCert) {
		t.Errorf("rogue device: %v", err)
	}
}

func TestVerifyRejectsMalformedCert(t *testing.T) {
	r := newShefRig(t)
	digest := cryptoutil.Digest([]byte("b"))
	nonce := cryptoutil.RandomKey(16)
	att := r.dev.attestCL(digest, nonce, r.ca.endorse(digest))
	att.cert.pub = nil
	if err := shefVerify(r.mfr.pub, r.ca.pub, nonce, att); !errors.Is(err, errShefBadCert) {
		t.Errorf("nil cert: %v", err)
	}
}
