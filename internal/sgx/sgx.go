// Package sgx is the software model of the CPU TEE Salus builds on (§2.1):
// measured enclave loading, the EGETKEY/EREPORT instruction pair, local
// attestation between enclaves on the same platform (Figure 1), and
// DCAP-style remote attestation quotes.
//
// Substitution note (hardware gate): real SGX derives its guarantees from
// fused CPU secrets and microcode; this model derives them from an
// unexported per-platform secret and a platform attestation key certified
// by a simulated provisioning authority. The *protocol-visible* behaviour —
// report keys only shared by enclaves of the same platform, reports MAC'd
// toward a target measurement, quotes verifiable against a root of trust —
// matches, which is all the Salus protocols depend on. Memory isolation is
// a modelling convention: enclave state lives in unexported fields, and
// adversarial code in the test suite interacts only through the interfaces
// the threat model grants it (message transcripts, public APIs).
package sgx

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"salus/internal/cryptoutil"
)

// Errors.
var (
	ErrBadQuote  = errors.New("sgx: quote verification failed")
	ErrBadReport = errors.New("sgx: report MAC verification failed")
)

// Measurement is an enclave measurement (MRENCLAVE).
type Measurement [32]byte

// String renders the measurement in short hex form.
func (m Measurement) String() string { return fmt.Sprintf("%x", m[:8]) }

// ReportDataSize is the size of user data bound into reports and quotes.
const ReportDataSize = 64

// EnclaveImage is the content measured at load: the enclave binary pages
// plus identity metadata.
type EnclaveImage struct {
	Name    string
	Version uint16
	Debug   bool
	Code    []byte // stands in for the measured binary
}

// Measure computes MRENCLAVE: a SHA-256 over the image exactly as the
// loader would extend it page by page.
func (img EnclaveImage) Measure() Measurement {
	h := sha256.New()
	h.Write([]byte(img.Name))
	h.Write([]byte{0})
	var v [2]byte
	binary.BigEndian.PutUint16(v[:], img.Version)
	h.Write(v[:])
	if img.Debug {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	h.Write(img.Code)
	var m Measurement
	copy(m[:], h.Sum(nil))
	return m
}

// ProvisioningAuthority is the root of the attestation trust chain — the
// role Intel's attestation service plays for SGX, and that Salus assigns to
// the hardware manufacturer (§4.1). It also maintains the revocation list
// for compromised platforms (the DCAP TCB-recovery mechanism).
type ProvisioningAuthority struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey

	mu      sync.Mutex
	revoked map[string]bool // platform public keys, string-keyed
}

// NewProvisioningAuthority generates a fresh root.
func NewProvisioningAuthority() (*ProvisioningAuthority, error) {
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		return nil, fmt.Errorf("sgx: %w", err)
	}
	return &ProvisioningAuthority{priv: priv, pub: pub, revoked: make(map[string]bool)}, nil
}

// RevokePlatform adds a platform's attestation key to the revocation list —
// the response to a leaked platform key or a broken TCB.
func (pa *ProvisioningAuthority) RevokePlatform(platformPub ed25519.PublicKey) {
	pa.mu.Lock()
	pa.revoked[string(platformPub)] = true
	pa.mu.Unlock()
}

// CRL returns the current revocation list — the collateral verifiers fetch
// alongside the root.
func (pa *ProvisioningAuthority) CRL() [][]byte {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	out := make([][]byte, 0, len(pa.revoked))
	for k := range pa.revoked {
		out = append(out, []byte(k))
	}
	return out
}

// PublicKey returns the root verification key distributed to verifiers.
func (pa *ProvisioningAuthority) PublicKey() ed25519.PublicKey {
	return append(ed25519.PublicKey(nil), pa.pub...)
}

// PlatformCert certifies a platform's attestation key.
type PlatformCert struct {
	PlatformPub ed25519.PublicKey
	Signature   []byte // PA signature over PlatformPub
}

// Platform is one TEE-enabled machine: it holds the fused secret from
// which report keys derive and a PA-certified attestation key used by its
// quoting enclave.
type Platform struct {
	secret    []byte
	quotePriv ed25519.PrivateKey
	cert      PlatformCert
}

// NewPlatform provisions a platform under the given authority.
func NewPlatform(pa *ProvisioningAuthority) (*Platform, error) {
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		return nil, fmt.Errorf("sgx: %w", err)
	}
	return &Platform{
		secret:    cryptoutil.RandomKey(32),
		quotePriv: priv,
		cert: PlatformCert{
			PlatformPub: pub,
			Signature:   ed25519.Sign(pa.priv, pub),
		},
	}, nil
}

// Load creates an enclave instance from an image, measuring it.
func (p *Platform) Load(img EnclaveImage) *Enclave {
	return &Enclave{platform: p, image: img, mrenclave: img.Measure()}
}

// reportKey derives the report key for a target measurement on this
// platform — the EGETKEY derivation.
func (p *Platform) reportKey(target Measurement) []byte {
	return cryptoutil.DeriveKey(p.secret, "report-key/"+string(target[:]), 16)
}

// Enclave is a loaded enclave instance.
type Enclave struct {
	platform  *Platform
	image     EnclaveImage
	mrenclave Measurement
}

// Measurement returns the enclave's MRENCLAVE.
func (e *Enclave) Measurement() Measurement { return e.mrenclave }

// Image returns the loaded image metadata.
func (e *Enclave) Image() EnclaveImage { return e.image }

// Report is the EREPORT output: the issuing enclave's identity and user
// data, MAC'd under the *target* enclave's report key so only an enclave
// with that measurement on the same platform can verify it.
type Report struct {
	MRENCLAVE  Measurement
	Version    uint16
	Debug      bool
	ReportData [ReportDataSize]byte
	MAC        []byte
}

func reportBody(r Report) []byte {
	out := make([]byte, 0, 32+2+1+ReportDataSize)
	out = append(out, r.MRENCLAVE[:]...)
	out = binary.BigEndian.AppendUint16(out, r.Version)
	if r.Debug {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return append(out, r.ReportData[:]...)
}

// EReport issues a report toward the enclave with measurement target.
func (e *Enclave) EReport(target Measurement, data [ReportDataSize]byte) (Report, error) {
	r := Report{
		MRENCLAVE:  e.mrenclave,
		Version:    e.image.Version,
		Debug:      e.image.Debug,
		ReportData: data,
	}
	mac, err := cryptoutil.CMAC(e.platform.reportKey(target), reportBody(r))
	if err != nil {
		return Report{}, err
	}
	r.MAC = mac
	return r, nil
}

// VerifyReport checks a report addressed to this enclave: EGETKEY for the
// own report key, then CMAC verification. A valid report proves the issuer
// runs on the same platform with the claimed measurement.
func (e *Enclave) VerifyReport(r Report) error {
	if !cryptoutil.VerifyCMAC(e.platform.reportKey(e.mrenclave), reportBody(r), r.MAC) {
		return ErrBadReport
	}
	return nil
}

// Quote is a DCAP-style remote attestation quote: the report body signed
// by the platform attestation key, carried with the PA certificate.
type Quote struct {
	MRENCLAVE  Measurement
	Version    uint16
	Debug      bool
	ReportData [ReportDataSize]byte
	Cert       PlatformCert
	Signature  []byte
}

func quoteBody(q Quote) []byte {
	return reportBody(Report{
		MRENCLAVE:  q.MRENCLAVE,
		Version:    q.Version,
		Debug:      q.Debug,
		ReportData: q.ReportData,
	})
}

// Quote produces a remote attestation quote binding data (via the
// platform's quoting enclave).
func (e *Enclave) Quote(data [ReportDataSize]byte) Quote {
	q := Quote{
		MRENCLAVE:  e.mrenclave,
		Version:    e.image.Version,
		Debug:      e.image.Debug,
		ReportData: data,
		Cert: PlatformCert{
			PlatformPub: append(ed25519.PublicKey(nil), e.platform.cert.PlatformPub...),
			Signature:   append([]byte(nil), e.platform.cert.Signature...),
		},
	}
	q.Signature = ed25519.Sign(e.platform.quotePriv, quoteBody(q))
	return q
}

// VerifyQuote validates a quote against the provisioning authority root:
// certificate chain, then quote signature. Checking MRENCLAVE against an
// expected measurement is the verifier's policy decision, done separately.
func VerifyQuote(root ed25519.PublicKey, q Quote) error {
	return VerifyQuoteWithCRL(root, nil, q)
}

// VerifyQuoteWithCRL additionally rejects quotes from revoked platforms.
// Verifiers that fetch collateral pass the authority's current CRL.
func VerifyQuoteWithCRL(root ed25519.PublicKey, crl [][]byte, q Quote) error {
	if len(q.Cert.PlatformPub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: malformed platform key", ErrBadQuote)
	}
	for _, r := range crl {
		if string(r) == string(q.Cert.PlatformPub) {
			return fmt.Errorf("%w: platform revoked", ErrBadQuote)
		}
	}
	if !ed25519.Verify(root, q.Cert.PlatformPub, q.Cert.Signature) {
		return fmt.Errorf("%w: platform certificate not signed by root", ErrBadQuote)
	}
	if !ed25519.Verify(q.Cert.PlatformPub, quoteBody(q), q.Signature) {
		return fmt.Errorf("%w: quote signature invalid", ErrBadQuote)
	}
	return nil
}

// PlatformPublicKey exposes the platform's certified attestation key — what
// an incident responder reports to the authority for revocation.
func (p *Platform) PlatformPublicKey() ed25519.PublicKey {
	return append(ed25519.PublicKey(nil), p.cert.PlatformPub...)
}

// LocalAttest runs the Figure 1 protocol: the verifier challenges with its
// own measurement, the prover EREPORTs toward it carrying data, and the
// verifier checks the MAC. On success it returns the prover's verified
// report.
func LocalAttest(verifier, prover *Enclave, data [ReportDataSize]byte) (Report, error) {
	// 1. Challenge: the verifier's MRENCLAVE.
	challenge := verifier.Measurement()
	// 2. Response: report keyed toward the verifier.
	rep, err := prover.EReport(challenge, data)
	if err != nil {
		return Report{}, err
	}
	// 3. Verification with the verifier's own report key.
	if err := verifier.VerifyReport(rep); err != nil {
		return Report{}, err
	}
	return rep, nil
}
