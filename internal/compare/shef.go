package compare

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
)

// The ShEF-style standalone FPGA TEE baseline of Table 1 (§3.2, §4.3):
// each device carries a unique private key injected into extra secure
// hardware (an ARM BootROM) during manufacturing, and the custom logic is
// attested with a *remote* attestation analogous to SGX's — public-key
// signatures over the CL measurement, verified through a certificate chain,
// with the CL developer acting as a certificate authority for the
// bitstream.
//
// The baseline makes the paper's two criticisms of this design executable:
//
//   - it needs extra RoT hardware (the BootROM key below — something COTS
//     cloud FPGAs do not have), and
//   - it needs a PKI and the developer's participation as a CA during
//     deployment, with PKE rounds orders of magnitude more expensive than
//     Salus's symmetric MAC (BenchmarkAblationAttestationScheme).

var (
	errShefBadCert      = errors.New("shef: certificate verification failed")
	errShefBadSignature = errors.New("shef: attestation signature invalid")
	errShefBadBitstream = errors.New("shef: bitstream not endorsed by developer CA")
)

// shefManufacturer roots the device trust chain and injects BootROM keys.
type shefManufacturer struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

func newShefManufacturer() (*shefManufacturer, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &shefManufacturer{priv: priv, pub: pub}, nil
}

// shefDevice is a ShEF-capable FPGA: the extra secure hardware holds a
// unique private key whose public half the manufacturer certifies.
type shefDevice struct {
	bootROMPriv ed25519.PrivateKey // the "extra hardware" Salus avoids
	cert        shefCert
}

// shefCert is a public key endorsed by a signer.
type shefCert struct {
	pub       ed25519.PublicKey
	signature []byte
}

// manufactureDevice fabricates a device with an injected BootROM key.
func (m *shefManufacturer) manufactureDevice() (*shefDevice, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &shefDevice{
		bootROMPriv: priv,
		cert:        shefCert{pub: pub, signature: ed25519.Sign(m.priv, pub)},
	}, nil
}

// shefDeveloperCA is the CL developer acting as a certificate authority: it
// endorses exact bitstream measurements. This keeps the developer in the
// loop at *deployment* time — one of the paper's usability criticisms.
type shefDeveloperCA struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

func newShefDeveloperCA() (*shefDeveloperCA, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &shefDeveloperCA{priv: priv, pub: pub}, nil
}

// endorse signs a bitstream digest, certifying "this is my IP".
func (ca *shefDeveloperCA) endorse(bitstreamDigest [32]byte) []byte {
	return ed25519.Sign(ca.priv, bitstreamDigest[:])
}

// shefAttestation is the device's remote attestation of a loaded CL.
type shefAttestation struct {
	digest      [32]byte // measured CL bitstream
	cert        shefCert
	signature   []byte // by the BootROM key over (digest, nonce)
	endorsement []byte // developer CA signature over the digest
}

func shefAttBody(digest [32]byte, nonce []byte) []byte {
	h := sha256.New()
	h.Write([]byte("shef/attestation"))
	h.Write(digest[:])
	h.Write(nonce)
	return h.Sum(nil)
}

// attestCL produces the device's attestation for a loaded bitstream
// (identified by its digest) against a verifier nonce, attaching the
// developer's endorsement.
func (d *shefDevice) attestCL(digest [32]byte, nonce []byte, endorsement []byte) shefAttestation {
	return shefAttestation{
		digest:      digest,
		cert:        d.cert,
		signature:   ed25519.Sign(d.bootROMPriv, shefAttBody(digest, nonce)),
		endorsement: endorsement,
	}
}

// shefVerify checks the full chain: manufacturer → device cert → signature
// over (digest, nonce), plus the developer CA's endorsement of the digest.
func shefVerify(root, devCA ed25519.PublicKey, nonce []byte, a shefAttestation) error {
	if len(a.cert.pub) != ed25519.PublicKeySize {
		return errShefBadCert
	}
	if !ed25519.Verify(root, a.cert.pub, a.cert.signature) {
		return fmt.Errorf("%w: device certificate", errShefBadCert)
	}
	if !ed25519.Verify(a.cert.pub, shefAttBody(a.digest, nonce), a.signature) {
		return errShefBadSignature
	}
	if !ed25519.Verify(devCA, a.digest[:], a.endorsement) {
		return errShefBadBitstream
	}
	return nil
}
