package userapp

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"salus/internal/cryptoutil"
	"salus/internal/sgx"
	"salus/internal/trace"
)

// Sibling data-key hand-off.
//
// A fleet manager that hot-adds a board (internal/fleet) has no way to
// provision the data key itself: the key is sealed to attested enclaves and
// the host never sees it. What the host *can* arrange is a transfer between
// two user enclaves on the same platform: the donor — already attested by
// the data owner and holding the key — locally attests the recipient
// exactly as the SM hand-off of §4.7 does, and hands the key over only if
// the recipient runs the *identical* user program on the same machine and
// attested the CL digest the donor attested. The trust argument is the data
// owner's own: they approved this measurement on this platform, running
// this CL, when they provisioned the donor; a second instance of the same
// measurement over the same attested CL is the same trust domain. A
// recipient with a different user program, a debug build, a foreign
// platform, or a CL other than the donor's is refused. By induction from
// the boards the owner attested, every keyed board runs the digest the
// owner attested.

// KeyRequest is the recipient's half of the hand-off: an EREPORT addressed
// to the donor binding the recipient's ephemeral ECDH public key and the
// digest of the CL it attested.
type KeyRequest struct {
	Report       sgx.Report
	RecipientPub []byte
}

// KeyGrant is the donor's answer: the data key sealed under the one-pass
// ECDH channel toward the attested recipient key.
type KeyGrant struct {
	SenderPub []byte
	Sealed    []byte
}

// handoffBinding ties the recipient's ephemeral public key and the digest
// of its attested CL into its report, so the untrusted host relaying the
// request can swap neither. The donor recomputes it over its own digest.
func handoffBinding(recipientPub []byte, digest [32]byte) [sgx.ReportDataSize]byte {
	var out [sgx.ReportDataSize]byte
	h := sha256.New()
	h.Write([]byte("salus/key-handoff"))
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(recipientPub)))
	h.Write(n[:])
	h.Write(recipientPub)
	h.Write(digest[:])
	copy(out[:32], h.Sum(nil))
	return out
}

// attestedDigest returns the digest of the CL this enclave attested, and
// refuses without an attested CL result: nothing is quoted or keyed then.
func (u *UserApp) attestedDigest() ([32]byte, error) {
	if u.result == nil {
		return [32]byte{}, ErrNoCLResult
	}
	if !u.result.Attested {
		return [32]byte{}, ErrCLFailed
	}
	return u.result.Digest, nil
}

// RequestDataKey starts the recipient side of a sibling hand-off: generate
// an ephemeral key pair and report toward the donor's measurement, bound
// to the CL digest this enclave attested. The private half stays in the
// enclave until AcceptDataKey consumes it.
func (u *UserApp) RequestDataKey(donor sgx.Measurement) (KeyRequest, error) {
	if u.dataKey != nil {
		return KeyRequest{}, fmt.Errorf("userapp: data key already provisioned")
	}
	digest, err := u.attestedDigest()
	if err != nil {
		return KeyRequest{}, fmt.Errorf("userapp: key request: %w", err)
	}
	var req KeyRequest
	d := u.cfg.Clock.Measure(u.cfg.Slowdown, func() {
		var priv *ecdh.PrivateKey
		priv, err = ecdh.X25519().GenerateKey(rand.Reader)
		if err != nil {
			return
		}
		pub := priv.PublicKey().Bytes()
		var rep sgx.Report
		rep, err = u.enclave.EReport(donor, handoffBinding(pub, digest))
		if err != nil {
			return
		}
		u.handoffPriv = priv
		req = KeyRequest{Report: rep, RecipientPub: pub}
	})
	u.cfg.Trace.Record(trace.PhaseLocalAttest, d)
	return req, err
}

// ShareDataKey is the donor side: verify the recipient's report (same
// platform, identical measurement, non-debug, key binding intact over the
// donor's own attested CL digest), then seal the provisioned data key to
// the attested ephemeral key.
func (u *UserApp) ShareDataKey(req KeyRequest) (KeyGrant, error) {
	if u.dataKey == nil {
		return KeyGrant{}, fmt.Errorf("userapp: no data key to share")
	}
	digest, err := u.attestedDigest()
	if err != nil {
		return KeyGrant{}, fmt.Errorf("userapp: donor: %w", err)
	}
	var grant KeyGrant
	d := u.cfg.Clock.Measure(u.cfg.Slowdown, func() {
		// VerifyReport proves same-platform issuance (EGETKEY-derived MAC);
		// the measurement check pins the identical user program.
		if err = u.enclave.VerifyReport(req.Report); err != nil {
			err = fmt.Errorf("userapp: sibling report: %w", err)
			return
		}
		if req.Report.MRENCLAVE != u.enclave.Measurement() {
			err = fmt.Errorf("userapp: sibling runs a different user program (%s != %s)",
				req.Report.MRENCLAVE, u.enclave.Measurement())
			return
		}
		if req.Report.Debug {
			err = fmt.Errorf("userapp: refusing key hand-off to a debug enclave")
			return
		}
		// A recipient that attested another CL bound another digest.
		if req.Report.ReportData != handoffBinding(req.RecipientPub, digest) {
			err = fmt.Errorf("userapp: hand-off binding mismatch: the recipient's key or CL digest differs")
			return
		}
		var recipPub *ecdh.PublicKey
		recipPub, err = ecdh.X25519().NewPublicKey(req.RecipientPub)
		if err != nil {
			return
		}
		var priv *ecdh.PrivateKey
		priv, err = ecdh.X25519().GenerateKey(rand.Reader)
		if err != nil {
			return
		}
		var shared []byte
		shared, err = priv.ECDH(recipPub)
		if err != nil {
			return
		}
		var sealed []byte
		sealed, err = cryptoutil.Seal(cryptoutil.DeriveKey(shared, "salus/key-handoff", 32), u.dataKey, []byte("data-key"))
		if err != nil {
			return
		}
		grant = KeyGrant{SenderPub: priv.PublicKey().Bytes(), Sealed: sealed}
	})
	u.cfg.Trace.Record(trace.PhaseLocalAttest, d)
	return grant, err
}

// AcceptDataKey completes the hand-off on the recipient: derive the shared
// secret with the ephemeral key from RequestDataKey and unseal.
func (u *UserApp) AcceptDataKey(grant KeyGrant) error {
	if u.handoffPriv == nil {
		return fmt.Errorf("userapp: no hand-off in progress")
	}
	var err error
	d := u.cfg.Clock.Measure(u.cfg.Slowdown, func() {
		var donorPub *ecdh.PublicKey
		donorPub, err = ecdh.X25519().NewPublicKey(grant.SenderPub)
		if err != nil {
			return
		}
		var shared []byte
		shared, err = u.handoffPriv.ECDH(donorPub)
		if err != nil {
			return
		}
		var key []byte
		key, err = cryptoutil.Open(cryptoutil.DeriveKey(shared, "salus/key-handoff", 32), grant.Sealed, []byte("data-key"))
		if err != nil {
			err = fmt.Errorf("userapp: handed-off data key rejected: %w", err)
			return
		}
		u.dataKey = key
		u.handoffPriv = nil
	})
	u.cfg.Trace.Record(trace.PhaseLocalAttest, d)
	return err
}
