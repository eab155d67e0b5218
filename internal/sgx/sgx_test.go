package sgx

import (
	"errors"
	"testing"
	"testing/quick"
)

func newPA(t testing.TB) *ProvisioningAuthority {
	t.Helper()
	pa, err := NewProvisioningAuthority()
	if err != nil {
		t.Fatal(err)
	}
	return pa
}

func newPlatform(t testing.TB, pa *ProvisioningAuthority) *Platform {
	t.Helper()
	p, err := NewPlatform(pa)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func img(name string) EnclaveImage {
	return EnclaveImage{Name: name, Version: 1, Code: []byte(name + " binary")}
}

func TestMeasurementDeterministicAndSensitive(t *testing.T) {
	a := img("user").Measure()
	if a != img("user").Measure() {
		t.Error("measurement not deterministic")
	}
	variants := []EnclaveImage{
		{Name: "userX", Version: 1, Code: []byte("user binary")},
		{Name: "user", Version: 2, Code: []byte("user binary")},
		{Name: "user", Version: 1, Debug: true, Code: []byte("user binary")},
		{Name: "user", Version: 1, Code: []byte("USER binary")},
	}
	for i, v := range variants {
		if v.Measure() == a {
			t.Errorf("variant %d has identical measurement", i)
		}
	}
}

func TestMeasureFieldBoundaries(t *testing.T) {
	// Name/code bytes must not be confusable across the separator.
	a := EnclaveImage{Name: "ab", Code: []byte("c")}.Measure()
	b := EnclaveImage{Name: "a", Code: []byte("bc")}.Measure()
	if a == b {
		t.Error("name/code boundary ambiguity")
	}
}

func TestLocalAttestSamePlatform(t *testing.T) {
	pa := newPA(t)
	p := newPlatform(t, pa)
	verifier := p.Load(img("user"))
	prover := p.Load(img("sm"))
	var data [ReportDataSize]byte
	copy(data[:], "ecdh-pubkey-digest")
	rep, err := LocalAttest(verifier, prover, data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MRENCLAVE != prover.Measurement() {
		t.Error("report carries wrong measurement")
	}
	if rep.ReportData != data {
		t.Error("report data not bound")
	}
}

func TestLocalAttestCrossPlatformFails(t *testing.T) {
	pa := newPA(t)
	p1 := newPlatform(t, pa)
	p2 := newPlatform(t, pa)
	verifier := p1.Load(img("user"))
	prover := p2.Load(img("sm"))
	if _, err := LocalAttest(verifier, prover, [ReportDataSize]byte{}); !errors.Is(err, ErrBadReport) {
		t.Errorf("cross-platform local attestation: err = %v, want ErrBadReport", err)
	}
}

func TestReportTamperDetected(t *testing.T) {
	pa := newPA(t)
	p := newPlatform(t, pa)
	verifier := p.Load(img("user"))
	prover := p.Load(img("sm"))
	rep, err := prover.EReport(verifier.Measurement(), [ReportDataSize]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	rep.ReportData[0] ^= 1
	if err := verifier.VerifyReport(rep); err == nil {
		t.Error("accepted tampered report data")
	}
	rep.ReportData[0] ^= 1
	rep.MRENCLAVE[0] ^= 1
	if err := verifier.VerifyReport(rep); err == nil {
		t.Error("accepted spoofed measurement")
	}
}

func TestReportTargetBinding(t *testing.T) {
	// A report addressed to enclave A must not verify at enclave B.
	pa := newPA(t)
	p := newPlatform(t, pa)
	a := p.Load(img("a"))
	b := p.Load(img("b"))
	prover := p.Load(img("sm"))
	rep, err := prover.EReport(a.Measurement(), [ReportDataSize]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.VerifyReport(rep); err != nil {
		t.Errorf("intended target rejected report: %v", err)
	}
	if err := b.VerifyReport(rep); err == nil {
		t.Error("wrong target accepted report")
	}
}

func TestQuoteVerifies(t *testing.T) {
	pa := newPA(t)
	p := newPlatform(t, pa)
	e := p.Load(img("sm"))
	var data [ReportDataSize]byte
	copy(data[:], "pubkey")
	q := e.Quote(data)
	if err := VerifyQuote(pa.PublicKey(), q); err != nil {
		t.Fatal(err)
	}
	if q.MRENCLAVE != e.Measurement() || q.ReportData != data {
		t.Error("quote fields wrong")
	}
}

func TestQuoteWrongRoot(t *testing.T) {
	pa := newPA(t)
	other := newPA(t)
	e := newPlatform(t, pa).Load(img("sm"))
	q := e.Quote([ReportDataSize]byte{})
	if err := VerifyQuote(other.PublicKey(), q); !errors.Is(err, ErrBadQuote) {
		t.Errorf("err = %v, want ErrBadQuote", err)
	}
}

func TestQuoteTamperDetected(t *testing.T) {
	pa := newPA(t)
	e := newPlatform(t, pa).Load(img("sm"))
	q := e.Quote([ReportDataSize]byte{})

	spoofed := q
	spoofed.MRENCLAVE[0] ^= 1
	if err := VerifyQuote(pa.PublicKey(), spoofed); err == nil {
		t.Error("accepted quote with altered measurement")
	}

	spoofed = q
	spoofed.ReportData[5] ^= 1
	if err := VerifyQuote(pa.PublicKey(), spoofed); err == nil {
		t.Error("accepted quote with altered report data")
	}

	spoofed = q
	spoofed.Cert.PlatformPub = append([]byte(nil), q.Cert.PlatformPub...)
	spoofed.Cert.PlatformPub[0] ^= 1
	if err := VerifyQuote(pa.PublicKey(), spoofed); err == nil {
		t.Error("accepted quote with altered platform key")
	}

	spoofed = q
	spoofed.Cert.PlatformPub = nil
	if err := VerifyQuote(pa.PublicKey(), spoofed); err == nil {
		t.Error("accepted quote with missing platform key")
	}
}

func TestQuoteCannotBeForgedByUncertifiedPlatform(t *testing.T) {
	// An attacker who generates their own platform key cannot produce a
	// quote verifiable against the PA root.
	pa := newPA(t)
	rogue := newPA(t) // acts as its own signer
	e := newPlatform(t, rogue).Load(img("sm"))
	q := e.Quote([ReportDataSize]byte{})
	if err := VerifyQuote(pa.PublicKey(), q); err == nil {
		t.Error("rogue platform's quote verified against real root")
	}
}

func TestPropertyReportDataRoundTrip(t *testing.T) {
	pa := newPA(t)
	p := newPlatform(t, pa)
	verifier := p.Load(img("v"))
	prover := p.Load(img("p"))
	f := func(data [ReportDataSize]byte) bool {
		rep, err := LocalAttest(verifier, prover, data)
		return err == nil && rep.ReportData == data
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkQuoteGenerateVerify(b *testing.B) {
	pa := newPA(b)
	e := newPlatform(b, pa).Load(img("sm"))
	root := pa.PublicKey()
	for i := 0; i < b.N; i++ {
		q := e.Quote([ReportDataSize]byte{})
		if err := VerifyQuote(root, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalAttest(b *testing.B) {
	pa := newPA(b)
	p := newPlatform(b, pa)
	verifier := p.Load(img("v"))
	prover := p.Load(img("p"))
	for i := 0; i < b.N; i++ {
		if _, err := LocalAttest(verifier, prover, [ReportDataSize]byte{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRevokedPlatformRejected(t *testing.T) {
	pa := newPA(t)
	p := newPlatform(t, pa)
	e := p.Load(img("sm"))
	q := e.Quote([ReportDataSize]byte{})
	if err := VerifyQuoteWithCRL(pa.PublicKey(), pa.CRL(), q); err != nil {
		t.Fatalf("pre-revocation verify: %v", err)
	}
	pa.RevokePlatform(p.PlatformPublicKey())
	if err := VerifyQuoteWithCRL(pa.PublicKey(), pa.CRL(), q); !errors.Is(err, ErrBadQuote) {
		t.Errorf("revoked platform accepted: %v", err)
	}
	// Other platforms stay valid.
	p2 := newPlatform(t, pa)
	q2 := p2.Load(img("sm")).Quote([ReportDataSize]byte{})
	if err := VerifyQuoteWithCRL(pa.PublicKey(), pa.CRL(), q2); err != nil {
		t.Errorf("unrevoked platform rejected: %v", err)
	}
}
