// Package userapp implements the user enclave application: the data
// owner's trusted agent on the cloud instance. It is the root of the
// cascaded attestation (§4.4) — it locally attests the SM enclave, forwards
// the bitstream metadata, collects the CL attestation result, and only then
// generates its own remote attestation quote, whose report data chains the
// identities of every backward stage. The data owner verifies that single
// quote and can immediately upload sensitive data.
package userapp

import (
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"salus/internal/channel"
	"salus/internal/cryptoutil"
	"salus/internal/sgx"
	"salus/internal/shell"
	"salus/internal/simtime"
	"salus/internal/smapp"
	"salus/internal/trace"
)

// Errors.
var (
	ErrNoLA       = errors.New("userapp: SM enclave not locally attested")
	ErrNoCLResult = errors.New("userapp: CL attestation result not collected")
	ErrCLFailed   = errors.New("userapp: CL attestation reported failure")
)

// Image returns the user enclave image for a given user program. The
// program bytes are measured, so the data owner's expected MRENCLAVE pins
// the exact binary.
func Image(userProgram []byte) sgx.EnclaveImage {
	return sgx.EnclaveImage{Name: "salus-user-app", Version: 1, Code: userProgram}
}

// Config assembles a user application.
type Config struct {
	Platform    *sgx.Platform
	UserProgram []byte
	SM          *smapp.SMApp
	Shell       *shell.Shell // direct (unsecure) accelerator path
	Partition   int          // reconfigurable partition index; default 0

	// Timing (optional).
	Clock    *simtime.Clock
	Trace    *trace.Log
	Slowdown float64 // in-enclave crypto penalty
}

// UserApp is a running user enclave application.
type UserApp struct {
	cfg     Config
	enclave *sgx.Enclave

	laKey    []byte
	smID     sgx.Measurement
	meta     *smapp.Metadata
	result   *smapp.CLResult
	dataPriv *ecdh.PrivateKey
	dataKey  []byte
	// dataAEAD is dataKey's expanded AES-GCM instance, built on the first
	// job (not at provisioning, so a boot costs nothing extra) and dropped
	// with the key.
	dataAEAD cipher.AEAD

	// handoffPriv is the ephemeral key of an in-progress sibling data-key
	// hand-off (share.go); nil when none is pending.
	handoffPriv *ecdh.PrivateKey
}

// New loads the user enclave.
func New(cfg Config) (*UserApp, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("userapp: nil platform")
	}
	if cfg.Clock == nil {
		cfg.Clock = simtime.NewClock()
	}
	if cfg.Trace == nil {
		cfg.Trace = trace.New()
	}
	if cfg.Slowdown <= 0 {
		cfg.Slowdown = 1
	}
	return &UserApp{cfg: cfg, enclave: cfg.Platform.Load(Image(cfg.UserProgram))}, nil
}

// Measurement returns the user enclave's MRENCLAVE.
func (u *UserApp) Measurement() sgx.Measurement { return u.enclave.Measurement() }

// SMMeasurement returns the locally attested SM enclave measurement.
func (u *UserApp) SMMeasurement() (sgx.Measurement, error) {
	if u.laKey == nil {
		return sgx.Measurement{}, ErrNoLA
	}
	return u.smID, nil
}

// LocalAttestSM runs the initiator side of the local attestation with the
// SM enclave (Figure 4b "LA Initial"/"LA Final"): ECDH exchange bound into
// the EREPORT, verified with the user enclave's own report key.
func (u *UserApp) LocalAttestSM() error {
	if u.cfg.SM == nil {
		return fmt.Errorf("userapp: no SM application configured")
	}
	var err error
	d := u.cfg.Clock.Measure(u.cfg.Slowdown, func() {
		var priv *ecdh.PrivateKey
		priv, err = ecdh.X25519().GenerateKey(rand.Reader)
		if err != nil {
			return
		}
		init := smapp.LAInit{
			VerifierMeasurement: u.enclave.Measurement(),
			VerifierPub:         priv.PublicKey().Bytes(),
		}
		var final smapp.LAFinal
		final, err = u.cfg.SM.LocalAttestResponder(init)
		if err != nil {
			return
		}
		// Verify the report with our own report key (same platform), then
		// check the key binding before deriving the channel key.
		if err = u.enclave.VerifyReport(final.Report); err != nil {
			err = fmt.Errorf("userapp: SM enclave local attestation: %w", err)
			return
		}
		if final.Report.ReportData != smapp.LABinding(init.VerifierPub, final.ResponderPub) {
			err = fmt.Errorf("userapp: local attestation key binding mismatch")
			return
		}
		var pub *ecdh.PublicKey
		pub, err = ecdh.X25519().NewPublicKey(final.ResponderPub)
		if err != nil {
			return
		}
		var shared []byte
		shared, err = priv.ECDH(pub)
		if err != nil {
			return
		}
		u.laKey = smapp.DeriveLAKey(shared)
		u.smID = final.Report.MRENCLAVE
	})
	u.cfg.Trace.Record(trace.PhaseLocalAttest, d)
	return err
}

// ForwardMetadata passes the expected bitstream digest and Loc to the SM
// enclave over the attested channel.
func (u *UserApp) ForwardMetadata(md smapp.Metadata) error {
	if u.laKey == nil {
		return ErrNoLA
	}
	sealed, err := smapp.SealMetadata(u.laKey, md)
	if err != nil {
		return err
	}
	if err := u.cfg.SM.ReceiveMetadata(sealed); err != nil {
		return err
	}
	u.meta = &md
	return nil
}

// CollectCLResult pulls the sealed CL attestation result from the SM
// enclave and verifies it against the forwarded metadata.
func (u *UserApp) CollectCLResult() error {
	if u.laKey == nil {
		return ErrNoLA
	}
	sealed, err := u.cfg.SM.Result()
	if err != nil {
		return err
	}
	res, err := smapp.OpenResult(u.laKey, sealed)
	if err != nil {
		return err
	}
	//lint:allow ct-compare both sides are public bitstream measurements the user already holds; integrity check, not secret authentication
	if u.meta != nil && res.Digest != u.meta.Digest {
		return fmt.Errorf("userapp: CL result covers digest %x, expected %x", res.Digest[:8], u.meta.Digest[:8])
	}
	u.result = &res
	return nil
}

// ChainBinding computes the report data of the final (deferred) quote: a
// hash chaining the client nonce, the locally attested SM measurement, and
// the CL attestation result. The data owner can recompute it entirely from
// its own expectations, so one quote proves the whole platform (§4.4.2).
func ChainBinding(nonce []byte, sm sgx.Measurement, res smapp.CLResult, dataPub []byte) [sgx.ReportDataSize]byte {
	var out [sgx.ReportDataSize]byte
	h := sha256.New()
	h.Write([]byte("salus/ra-chain"))
	h.Write(nonce)
	h.Write(sm[:])
	h.Write(res.Digest[:])
	h.Write([]byte(res.DNA))
	if res.Attested {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	copy(out[:32], h.Sum(nil))
	copy(out[32:], dataPub)
	return out
}

// GenerateRAResponse produces the deferred remote attestation quote
// (Figure 4b "RA Response"): only available once the CL result is in, it
// chains all backward stages into the report data and carries a fresh
// ECDH public key for data-key provisioning. quoteGen models the DCAP
// quoting round trip.
func (u *UserApp) GenerateRAResponse(nonce []byte, quoteGen time.Duration) (sgx.Quote, error) {
	if u.result == nil {
		return sgx.Quote{}, ErrNoCLResult
	}
	if !u.result.Attested {
		return sgx.Quote{}, ErrCLFailed
	}
	u.cfg.Clock.Advance(quoteGen)
	u.cfg.Trace.Record(trace.PhaseUserQuoteGen, quoteGen)

	var q sgx.Quote
	var err error
	d := u.cfg.Clock.Measure(u.cfg.Slowdown, func() {
		var priv *ecdh.PrivateKey
		priv, err = ecdh.X25519().GenerateKey(rand.Reader)
		if err != nil {
			return
		}
		u.dataPriv = priv
		q = u.enclave.Quote(ChainBinding(nonce, u.smID, *u.result, priv.PublicKey().Bytes()))
	})
	u.cfg.Trace.Record(trace.PhaseUserQuoteGen, d)
	return q, err
}

// GenerateUnchainedQuote models the SGX-FPGA-style multi-stage attestation
// baseline: a quote over the client nonce alone, available *before* the CL
// (or even the SM enclave) is attested. It exists only for the ablation
// study comparing against cascaded attestation — the Salus flow never
// exposes it.
func (u *UserApp) GenerateUnchainedQuote(nonce []byte, quoteGen time.Duration) sgx.Quote {
	u.cfg.Clock.Advance(quoteGen)
	u.cfg.Trace.Record(trace.PhaseUserQuoteGen, quoteGen)
	var data [sgx.ReportDataSize]byte
	h := sha256.Sum256(append([]byte("sgx-fpga/stage1"), nonce...))
	copy(data[:32], h[:])
	return u.enclave.Quote(data)
}

// CLResult returns the collected result (for reporting).
func (u *UserApp) CLResult() (smapp.CLResult, error) {
	if u.result == nil {
		return smapp.CLResult{}, ErrNoCLResult
	}
	return *u.result, nil
}

// ReceiveDataKey unseals the data owner's symmetric data key, provisioned
// against the public key carried in the RA response (Figure 3 ⑧ → data
// upload).
func (u *UserApp) ReceiveDataKey(senderPub, sealed []byte) error {
	if u.dataPriv == nil {
		return fmt.Errorf("userapp: no RA response generated yet")
	}
	pub, err := ecdh.X25519().NewPublicKey(senderPub)
	if err != nil {
		return fmt.Errorf("userapp: bad sender key: %w", err)
	}
	shared, err := u.dataPriv.ECDH(pub)
	if err != nil {
		return err
	}
	key, err := cryptoutil.Open(cryptoutil.DeriveKey(shared, "salus/data-key", 32), sealed, []byte("data-key"))
	if err != nil {
		return fmt.Errorf("userapp: data key rejected: %w", err)
	}
	u.dataKey = key
	return nil
}

// DataKey returns the provisioned data key (in-enclave use only: tests and
// the job runner call it from trusted-side code).
func (u *UserApp) DataKey() ([]byte, error) {
	if u.dataKey == nil {
		return nil, fmt.Errorf("userapp: no data key provisioned")
	}
	return append([]byte(nil), u.dataKey...), nil
}

// DataAEAD returns the provisioned data key expanded for sealing and
// opening job payloads (in-enclave use only, like DataKey). The schedule is
// expanded on the first call and reused for as long as the key lives.
// Callers serialise it with the enclave's other key-state methods (the job
// runner holds its job lock).
func (u *UserApp) DataAEAD() (cipher.AEAD, error) {
	if u.dataKey == nil {
		return nil, fmt.Errorf("userapp: no data key provisioned")
	}
	if u.dataAEAD == nil {
		aead, err := cryptoutil.NewAEAD(u.dataKey)
		if err != nil {
			return nil, err
		}
		u.dataAEAD = aead
	}
	return u.dataAEAD, nil
}

// Zeroize destroys the enclave's key material in place — data key, local
// attestation key, and any pending key-agreement state — so a reclaimed
// partition leaves nothing for the next tenant's co-residency window to
// recover. The data key's expanded schedule cannot be wiped (crypto/aes
// offers no way to), so it is dropped: this was its only reference. The
// enclave cannot serve afterwards.
func (u *UserApp) Zeroize() {
	for i := range u.dataKey {
		u.dataKey[i] = 0
	}
	u.dataKey = nil
	u.dataAEAD = nil
	for i := range u.laKey {
		u.laKey[i] = 0
	}
	u.laKey = nil
	u.dataPriv = nil
	u.handoffPriv = nil
}

// SecureReg issues a register transaction over the SM-protected channel.
func (u *UserApp) SecureReg(txn channel.RegTxn) (channel.RegResult, error) {
	if u.cfg.SM == nil {
		return channel.RegResult{}, fmt.Errorf("userapp: no SM application configured")
	}
	return u.cfg.SM.SecureReg(txn)
}

// SecureRegBatch issues a whole register program over the SM-protected
// channel as one sealed frame (one counter tick for the vector). Results
// are appended to dst and are valid until the next batch call.
func (u *UserApp) SecureRegBatch(txns []channel.RegTxn, dst []channel.RegResult) ([]channel.RegResult, error) {
	if u.cfg.SM == nil {
		return nil, fmt.Errorf("userapp: no SM application configured")
	}
	return u.cfg.SM.SecureRegBatch(txns, dst)
}

// Direct issues a raw transaction on the unprotected path straight to the
// accelerator (bulk ciphertext traffic, §4.5).
func (u *UserApp) Direct(req []byte) ([]byte, error) {
	if u.cfg.Shell == nil {
		return nil, fmt.Errorf("userapp: no shell configured")
	}
	//lint:allow sealed-boundary Direct is the documented unprotected path (§4.5) for bulk ciphertext; callers encrypt payloads before handing them over
	return u.cfg.Shell.TransactPartition(u.cfg.Partition, req)
}
