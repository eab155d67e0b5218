// Package manufacturer implements the hardware manufacturer's side of
// Salus (§4.1): it manufactures devices (injecting a random symmetric
// device key into each FPGA's eFUSE), maintains the DeviceDNA → Key_device
// distribution service, and releases a device key only to a remotely
// attested SM enclave (Figure 3, step ④). The paper assigns this trusted
// third-party role to the manufacturer because it already plays it for CPU
// TEEs (Intel Attestation Service) and FPGA key provisioning.
package manufacturer

import (
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"

	"salus/internal/cryptoutil"
	"salus/internal/fpga"
	"salus/internal/netlist"
	"salus/internal/sgx"
)

// Errors.
var (
	ErrUnknownDevice  = errors.New("manufacturer: unknown device DNA")
	ErrUntrustedQuote = errors.New("manufacturer: quote verification failed")
	ErrUnknownEnclave = errors.New("manufacturer: enclave measurement not on the trusted SM list")
	ErrOutdatedTCB    = errors.New("manufacturer: SM enclave version below TCB recovery floor")
	ErrDebugEnclave   = errors.New("manufacturer: debug enclaves are not issued device keys")
)

// KeyResponse carries an encrypted device key back to the SM enclave: the
// server's ephemeral ECDH public key and the key sealed under the derived
// channel secret.
type KeyResponse struct {
	ServerPub []byte
	Sealed    []byte
}

// Service is the manufacturer: provisioning authority, device factory, and
// key distribution server in one trust domain.
type Service struct {
	pa *sgx.ProvisioningAuthority

	mu           sync.Mutex
	devices      map[fpga.DNA][]byte
	trustedSM    map[sgx.Measurement]bool
	minSMVersion uint16
	requests     int
}

// New creates the manufacturer service with its own provisioning authority
// root.
func New() (*Service, error) {
	pa, err := sgx.NewProvisioningAuthority()
	if err != nil {
		return nil, err
	}
	return &Service{
		pa:        pa,
		devices:   make(map[fpga.DNA][]byte),
		trustedSM: make(map[sgx.Measurement]bool),
	}, nil
}

// Authority exposes the provisioning authority for platform provisioning —
// the manufacturing-time trust relationship between CPU platforms and the
// attestation root.
func (s *Service) Authority() *sgx.ProvisioningAuthority { return s.pa }

// Root returns the quote verification root distributed to all verifiers.
func (s *Service) Root() []byte { return s.pa.PublicKey() }

// ManufactureDevice builds a device with a freshly generated symmetric
// device key fused into its eFUSE and recorded in the distribution
// database.
func (s *Service) ManufactureDevice(profile netlist.DeviceProfile, dna fpga.DNA, opts ...fpga.Option) (*fpga.Device, error) {
	dev, err := fpga.Manufacture(profile, dna, opts...)
	if err != nil {
		return nil, err
	}
	key := cryptoutil.RandomKey(cryptoutil.DeviceKeySize)
	if err := dev.FuseKey(key); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.devices[dna]; exists {
		return nil, fmt.Errorf("manufacturer: DNA %s already manufactured", dna)
	}
	s.devices[dna] = key
	return dev, nil
}

// TrustSMEnclave whitelists an SM enclave measurement. The SM application
// is a manufacturer-released SDK component (§4.1), so the manufacturer
// knows exactly which measurements to expect.
func (s *Service) TrustSMEnclave(m sgx.Measurement) {
	s.mu.Lock()
	s.trustedSM[m] = true
	s.mu.Unlock()
}

// Requests counts key distribution requests served (including rejected
// ones), for the audit trail.
func (s *Service) Requests() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests
}

// RequestDeviceKey serves Figure 3 step ④: the SM enclave asks for the key
// of the FPGA with the given DNA, proving its identity with a quote whose
// report data carries the enclave's ephemeral X25519 public key. The
// manufacturer verifies the quote against its root, checks the measurement
// against the trusted SM list, and returns Key_device sealed under the
// ECDH-derived channel key — it never leaves in plaintext.
func (s *Service) RequestDeviceKey(quote sgx.Quote, dna fpga.DNA) (KeyResponse, error) {
	s.mu.Lock()
	s.requests++
	key, known := s.devices[dna]
	trusted := s.trustedSM[quote.MRENCLAVE]
	minVersion := s.minSMVersion
	s.mu.Unlock()

	if err := sgx.VerifyQuoteWithCRL(s.pa.PublicKey(), s.pa.CRL(), quote); err != nil {
		return KeyResponse{}, fmt.Errorf("%w: %v", ErrUntrustedQuote, err)
	}
	if quote.Debug {
		return KeyResponse{}, ErrDebugEnclave
	}
	if quote.Version < minVersion {
		return KeyResponse{}, fmt.Errorf("%w: version %d < %d", ErrOutdatedTCB, quote.Version, minVersion)
	}
	if !trusted {
		return KeyResponse{}, fmt.Errorf("%w: %s", ErrUnknownEnclave, quote.MRENCLAVE)
	}
	if !known {
		return KeyResponse{}, fmt.Errorf("%w: %s", ErrUnknownDevice, dna)
	}

	curve := ecdh.X25519()
	clientPub, err := curve.NewPublicKey(quote.ReportData[:32])
	if err != nil {
		return KeyResponse{}, fmt.Errorf("manufacturer: bad client key in report data: %w", err)
	}
	serverPriv, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return KeyResponse{}, err
	}
	shared, err := serverPriv.ECDH(clientPub)
	if err != nil {
		return KeyResponse{}, fmt.Errorf("manufacturer: %w", err)
	}
	sealKey := cryptoutil.DeriveKey(shared, "salus/device-key-dist", 32)
	sealed, err := cryptoutil.Seal(sealKey, key, []byte(dna))
	if err != nil {
		return KeyResponse{}, err
	}
	return KeyResponse{ServerPub: serverPriv.PublicKey().Bytes(), Sealed: sealed}, nil
}

// OpenKeyResponse is the client-side counterpart used inside the SM
// enclave: it derives the shared secret with the enclave's ephemeral
// private key and unseals Key_device.
func OpenKeyResponse(clientPriv *ecdh.PrivateKey, dna fpga.DNA, resp KeyResponse) ([]byte, error) {
	serverPub, err := ecdh.X25519().NewPublicKey(resp.ServerPub)
	if err != nil {
		return nil, fmt.Errorf("manufacturer: bad server key: %w", err)
	}
	shared, err := clientPriv.ECDH(serverPub)
	if err != nil {
		return nil, fmt.Errorf("manufacturer: %w", err)
	}
	sealKey := cryptoutil.DeriveKey(shared, "salus/device-key-dist", 32)
	key, err := cryptoutil.Open(sealKey, resp.Sealed, []byte(dna))
	if err != nil {
		return nil, fmt.Errorf("manufacturer: unsealing device key: %w", err)
	}
	return key, nil
}
