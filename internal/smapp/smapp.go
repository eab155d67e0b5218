// Package smapp implements the Secure Manager (SM) enclave application
// (§4.1, §5.2.2): the manufacturer-released, publicly inspectable enclave
// that runs alongside the user enclave and performs every secure-booting
// step that must happen out of the shell's and OS's sight —
//
//  1. answering the user enclave's local attestation and receiving the
//     expected bitstream digest H and Loc_Keyattest over the established
//     channel (Figure 3 ③);
//  2. fetching Key_device from the manufacturer after being remotely
//     attested (④);
//  3. verifying the fetched CL bitstream against H, injecting a freshly
//     generated Key_attest / Key_session / Ctr_session by bitstream
//     manipulation, and encrypting the result under Key_device (⑤) —
//     the manipulated plaintext bitstream never leaves the enclave;
//  4. deploying through the (untrusted) shell (⑥) and attesting the loaded
//     CL with the symmetric challenge/response of Figure 4a (⑦);
//  5. afterwards, serving the user enclave's secure register transactions
//     over the Key_session channel (§4.5).
package smapp

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"salus/internal/bitman"
	"salus/internal/channel"
	"salus/internal/cryptoutil"
	"salus/internal/fpga"
	"salus/internal/manufacturer"
	"salus/internal/netlist"
	"salus/internal/sgx"
	"salus/internal/shell"
	"salus/internal/simnet"
	"salus/internal/simtime"
	"salus/internal/smlogic"
	"salus/internal/trace"
)

// Errors.
var (
	ErrNotAttested   = errors.New("smapp: CL not attested yet")
	ErrNoChannel     = errors.New("smapp: no local attestation channel established")
	ErrNoMetadata    = errors.New("smapp: bitstream metadata not received")
	ErrNoDeviceKey   = errors.New("smapp: device key not fetched")
	ErrDigest        = errors.New("smapp: bitstream digest mismatch")
	ErrCLAttestation = errors.New("smapp: CL attestation failed")
)

// Image returns the canonical SM enclave image. It is versioned and
// measured; the manufacturer whitelists exactly this measurement for key
// distribution.
func Image() sgx.EnclaveImage {
	return sgx.EnclaveImage{
		Name:    "salus-sm-app",
		Version: 1,
		Code:    []byte("salus secure manager enclave: LA responder, bitstream verify/manipulate/encrypt, CL attestation"),
	}
}

// Metadata is what the data owner publishes about the expected CL: the
// digest H of the developer's bitstream and the recorded location of the
// SM logic's secrets cell (Loc_Keyattest). Neither is secret; both must be
// integrity-protected in transit, which the RA/LA channels provide.
type Metadata struct {
	Digest [32]byte         `json:"digest"`
	Loc    netlist.Location `json:"loc"`
}

// CLResult conveys the CL attestation outcome from the SM enclave to the
// user enclave (Figure 4b, "CL Auth. Result").
type CLResult struct {
	Attested bool     `json:"attested"`
	DNA      string   `json:"dna"`
	Digest   [32]byte `json:"digest"`
}

// LAInit is the local attestation challenge from the user enclave: its own
// measurement plus an ephemeral ECDH public key.
type LAInit struct {
	VerifierMeasurement sgx.Measurement
	VerifierPub         []byte
}

// LAFinal is the SM enclave's response: an EREPORT toward the verifier
// binding both ECDH keys, plus the responder's ephemeral public key.
type LAFinal struct {
	Report       sgx.Report
	ResponderPub []byte
}

// LABinding computes the report data binding both ECDH public keys to the
// local attestation, preventing key-swap in transit.
func LABinding(verifierPub, responderPub []byte) [sgx.ReportDataSize]byte {
	var out [sgx.ReportDataSize]byte
	h := sha256.New()
	h.Write([]byte("salus/la-binding"))
	// Length-framed: X25519 keys are fixed-size in practice, but the
	// binding must not rely on that.
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(verifierPub)))
	h.Write(n[:])
	h.Write(verifierPub)
	binary.BigEndian.PutUint32(n[:], uint32(len(responderPub)))
	h.Write(n[:])
	h.Write(responderPub)
	copy(out[:32], h.Sum(nil))
	return out
}

// DeriveLAKey derives the post-attestation channel key both enclaves use.
func DeriveLAKey(shared []byte) []byte {
	return cryptoutil.DeriveKey(shared, "salus/la-channel", 32)
}

// KeyService is the manufacturer's key-distribution interface as the SM
// enclave consumes it — satisfied by *manufacturer.Service directly and by
// the RPC client in internal/remote.
type KeyService interface {
	RequestDeviceKey(quote sgx.Quote, dna fpga.DNA) (manufacturer.KeyResponse, error)
}

// Config assembles an SM application.
type Config struct {
	Platform     *sgx.Platform
	Manufacturer KeyService
	Shell        *shell.Shell
	Partition    int // reconfigurable partition index (§4.7); default 0

	// Timing (all optional; zero values mean "untimed").
	Clock            *simtime.Clock
	Trace            *trace.Log
	ManufacturerLink simnet.Link
	EnclaveSlowdown  float64 // in-enclave crypto penalty
	ToolSlowdown     float64 // manipulation-toolchain-in-enclave penalty
	QuoteGen         time.Duration
	QuoteVerify      time.Duration

	// Fleet amortisation (both optional; see prepared.go). Prepared memoises
	// the manipulate/encrypt stages across boards booting the same CL;
	// Quotes shares one manufacturer quote exchange across same-measurement
	// SM enclaves.
	Prepared *PreparedCache
	Quotes   *QuotePool
}

// SMApp is a running SM enclave application. Fields below the enclave
// handle model in-enclave state: nothing outside the trust boundary reads
// them (see the sgx package's modelling note).
type SMApp struct {
	cfg     Config
	enclave *sgx.Enclave

	mu         sync.Mutex
	laKey      []byte
	meta       *Metadata
	deviceKey  []byte
	keyAttest  []byte
	keySession []byte
	ctr        uint64
	attested   bool

	// sharedSecrets marks that the current Key_session epoch came out of the
	// prepared-bitstream cache and is therefore known to sibling boards.
	// AttestCL rotates the epoch immediately after attestation succeeds so
	// no cross-board frame replay is possible on a live session.
	sharedSecrets bool

	// sealer frames every secure-channel message of the current Key_session
	// epoch — single, batched and rekey — from one key schedule (guarded by
	// mu; dropped on rekey, redeploy and Zeroize) so the steady-state paths
	// are alloc-free.
	sealer *channel.Sealer
}

// New loads the SM enclave on the host platform.
func New(cfg Config) (*SMApp, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("smapp: nil platform")
	}
	if cfg.Clock == nil {
		cfg.Clock = simtime.NewClock()
	}
	if cfg.Trace == nil {
		cfg.Trace = trace.New()
	}
	if cfg.EnclaveSlowdown <= 0 {
		cfg.EnclaveSlowdown = 1
	}
	if cfg.ToolSlowdown <= 0 {
		cfg.ToolSlowdown = 1
	}
	return &SMApp{cfg: cfg, enclave: cfg.Platform.Load(Image())}, nil
}

// Measurement returns the SM enclave's MRENCLAVE.
func (a *SMApp) Measurement() sgx.Measurement { return a.enclave.Measurement() }

// Zeroize destroys the enclave's key material in place — device key,
// Key_attest, Key_session, and the local attestation key — and drops the
// cached channel sealer. A reclaimed partition's secure channel dies with
// its tenant: no frame sealed under the old epoch can ever verify again,
// because the keys no longer exist anywhere.
func (a *SMApp) Zeroize() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, b := range [][]byte{a.laKey, a.deviceKey, a.keyAttest, a.keySession} {
		clear(b)
	}
	a.laKey, a.deviceKey, a.keyAttest, a.keySession = nil, nil, nil, nil
	a.sealer = nil
	a.attested = false
}

// Attested reports whether the CL has passed attestation.
func (a *SMApp) Attested() bool { return a.attested }

// measure runs fn as in-enclave compute and charges it to the named phase.
func (a *SMApp) measure(p trace.Phase, slowdown float64, fn func()) {
	d := a.cfg.Clock.Measure(slowdown, fn)
	a.cfg.Trace.Record(p, d)
}

// charge records a modelled duration (a constant, or a simtime.SizeCost)
// against a phase.
func (a *SMApp) charge(p trace.Phase, d time.Duration) {
	a.cfg.Clock.Advance(d)
	a.cfg.Trace.Record(p, d)
}

// LocalAttestResponder answers a user-enclave local attestation: it
// generates an ephemeral ECDH key, issues an EREPORT toward the verifier
// binding both public keys, and derives the channel key. The SM enclave
// answers any verifier — a rogue "user enclave" learns nothing secret, and
// the cascaded attestation ensures a data owner only ever trusts reports
// rooted in a *genuine* user enclave (§4.4.2).
func (a *SMApp) LocalAttestResponder(init LAInit) (LAFinal, error) {
	var final LAFinal
	var err error
	a.measure(trace.PhaseLocalAttest, a.cfg.EnclaveSlowdown, func() {
		curve := ecdh.X25519()
		var verifierPub *ecdh.PublicKey
		verifierPub, err = curve.NewPublicKey(init.VerifierPub)
		if err != nil {
			err = fmt.Errorf("smapp: bad verifier key: %w", err)
			return
		}
		var priv *ecdh.PrivateKey
		priv, err = curve.GenerateKey(rand.Reader)
		if err != nil {
			return
		}
		var shared []byte
		shared, err = priv.ECDH(verifierPub)
		if err != nil {
			return
		}
		var rep sgx.Report
		rep, err = a.enclave.EReport(init.VerifierMeasurement, LABinding(init.VerifierPub, priv.PublicKey().Bytes()))
		if err != nil {
			return
		}
		a.laKey = DeriveLAKey(shared)
		final = LAFinal{Report: rep, ResponderPub: priv.PublicKey().Bytes()}
	})
	return final, err
}

// ReceiveMetadata decrypts the digest H and Loc_Keyattest forwarded by the
// user enclave over the LA channel (Figure 3 ③).
func (a *SMApp) ReceiveMetadata(sealed []byte) error {
	if a.laKey == nil {
		return ErrNoChannel
	}
	pt, err := cryptoutil.Open(a.laKey, sealed, []byte("metadata"))
	if err != nil {
		return fmt.Errorf("smapp: metadata rejected: %w", err)
	}
	var md Metadata
	if err := json.Unmarshal(pt, &md); err != nil {
		return fmt.Errorf("smapp: metadata malformed: %w", err)
	}
	a.meta = &md
	return nil
}

// SealMetadata is the sender-side helper (used inside the user enclave).
func SealMetadata(laKey []byte, md Metadata) ([]byte, error) {
	pt, err := json.Marshal(md)
	if err != nil {
		return nil, err
	}
	return cryptoutil.Seal(laKey, pt, []byte("metadata"))
}

// FetchDeviceKey runs Figure 3 ④: generate an ephemeral ECDH pair inside
// the enclave, get remotely attested by the manufacturer (quote carries the
// public key), and unseal Key_device from the response.
func (a *SMApp) FetchDeviceKey() error {
	if a.cfg.Manufacturer == nil || a.cfg.Shell == nil {
		return fmt.Errorf("smapp: manufacturer or shell not configured")
	}
	// Quote generation is dominated by the DCAP quoting-enclave round trip
	// on real hardware; modelled as a constant. A fleet QuotePool runs this
	// once and hands the quote plus its bound ephemeral key to every
	// same-measurement sibling (prepared.go).
	gen := func() (*ecdh.PrivateKey, sgx.Quote, error) {
		priv, err := ecdh.X25519().GenerateKey(rand.Reader)
		if err != nil {
			return nil, sgx.Quote{}, err
		}
		var data [sgx.ReportDataSize]byte
		copy(data[:32], priv.PublicKey().Bytes())
		var quote sgx.Quote
		a.charge(trace.PhaseSMQuoteGen, a.cfg.QuoteGen)
		a.measure(trace.PhaseSMQuoteGen, a.cfg.EnclaveSlowdown, func() {
			quote = a.enclave.Quote(data)
		})
		return priv, quote, nil
	}
	var priv *ecdh.PrivateKey
	var quote sgx.Quote
	var reused bool
	var err error
	if a.cfg.Quotes != nil {
		priv, quote, reused, err = a.cfg.Quotes.get(gen)
	} else {
		priv, quote, err = gen()
	}
	if err != nil {
		return err
	}

	// Request/response over the intra-cloud link; the server's quote
	// verification (its own DCAP round) is modelled as a constant. A reused
	// quote is byte-identical to one the manufacturer already verified, so
	// only the first exchange pays the verifier's DCAP round.
	dna := a.cfg.Shell.DNA()
	a.cfg.ManufacturerLink.RoundTrip(a.cfg.Clock, 1024, 256)
	if !reused {
		a.charge(trace.PhaseSMQuoteVerify, a.cfg.QuoteVerify)
	}
	resp, err := a.cfg.Manufacturer.RequestDeviceKey(quote, dna)
	if err != nil {
		return fmt.Errorf("smapp: key distribution: %w", err)
	}
	var key []byte
	a.measure(trace.PhaseKeyDistribution, a.cfg.EnclaveSlowdown, func() {
		key, err = manufacturer.OpenKeyResponse(priv, dna, resp)
	})
	if err != nil {
		return fmt.Errorf("smapp: %w", err)
	}
	a.deviceKey = key
	return nil
}

// DeployCL runs Figure 3 ⑤–⑥: verify the fetched bitstream against H,
// inject freshly generated secrets at Loc_Keyattest, encrypt under
// Key_device, and hand the ciphertext to the shell. Everything before the
// shell hand-off happens on in-enclave plaintext.
//
// The digest ⑤a runs on its own goroutine beside the manipulation and
// encryption it guards, and nothing escapes before it has matched: a
// prepared-cache build joins it before the cache publishes the build, a
// board without a cache joins it before the shell sees the ciphertext. On
// a mismatch DeployCL returns ErrDigest, whatever a later stage hit.
func (a *SMApp) DeployCL(encoded []byte) error {
	switch {
	case a.meta == nil:
		return ErrNoMetadata
	case a.deviceKey == nil:
		return ErrNoDeviceKey
	case a.cfg.Shell == nil:
		return fmt.Errorf("smapp: no shell configured")
	}
	profile := a.cfg.Shell.Device().Profile().Name

	// ⑤a+⑤b: verify, then manipulate — parse, inject fresh secrets. The
	// RapidWright-under-Occlum path dominates boot time and is
	// byte-identical for every board deploying this CL, so a fleet
	// PreparedCache builds it once; only the builder is charged. ⑤c, the
	// encryption under Key_device, is the only genuinely per-board stage,
	// memoised per (CL, device key) so a reboot of the same board skips it.
	var cl *preparedCL
	var sealed []byte
	var fromCache bool
	var err error
	if c := a.cfg.Prepared; c != nil {
		cl, fromCache, err = c.manipulated(a.meta.Digest, a.meta.Loc, func() (*preparedCL, error) {
			digest := a.startDigest(encoded)
			cl, err := manipulate(encoded, a.meta.Loc)
			return a.settle(digest, len(encoded), cl, err)
		})
		if err == nil {
			sealed, _, err = c.encrypted(a.meta.Digest, a.deviceKey, profile, func() ([]byte, error) {
				return a.encrypt(cl, profile)
			})
		}
	} else {
		cl, sealed, err = a.buildSealed(encoded, profile)
		defer cl.wipe()
	}
	if err != nil {
		return err
	}

	// ⑥: the shell loads the ciphertext; the FPGA decrypts internally.
	span := a.cfg.Clock.StartSpan()
	if err := a.cfg.Shell.LoadCLPartition(a.cfg.Partition, sealed); err != nil {
		return fmt.Errorf("smapp: deployment: %w", err)
	}
	a.cfg.Trace.Record(trace.PhaseCLDeployment, span.Elapsed())

	a.keyAttest = append([]byte(nil), cl.keyAttest...)
	a.keySession = append([]byte(nil), cl.keySession...)
	a.ctr = cl.ctrInit
	a.attested = false
	a.sharedSecrets = fromCache
	a.sealer = nil
	return nil
}

// buildSealed is ⑤a–⑤c for a board without a cache: the digest joins only
// after sealing, and the plaintext frames are wiped as soon as they are
// sealed — the ciphertext is all the board needs of them. The secrets stay
// in cl for the caller to take over and wipe.
func (a *SMApp) buildSealed(encoded []byte, profile string) (*preparedCL, []byte, error) {
	digest := a.startDigest(encoded)
	cl, err := manipulate(encoded, a.meta.Loc)
	var sealed []byte
	if err == nil {
		sealed, err = a.encrypt(cl, profile)
		cl.image.Wipe()
	}
	if cl, err = a.settle(digest, len(encoded), cl, err); err != nil {
		return nil, nil, err
	}
	return cl, sealed, nil
}

// startDigest starts ⑤a, the digest of encoded, on its own goroutine and
// charges its modelled cost on the caller's, once. The caller receives the
// digest before anything it built from encoded escapes (see settle).
func (a *SMApp) startDigest(encoded []byte) <-chan [32]byte {
	digest := make(chan [32]byte, 1)
	go func() { digest <- cryptoutil.Digest(encoded) }()
	a.charge(trace.PhaseBitVerifyEnc, simtime.SizeCost(float64(len(encoded)), simtime.HashBytesPerSec, a.cfg.EnclaveSlowdown))
	return digest
}

// settle joins the digest with the manipulation of size bytes built beside
// it. A mismatch is ErrDigest whatever the build returned; only a match
// charges the manipulation, as if it had run after the check. Any failure
// wipes the build.
func (a *SMApp) settle(digest <-chan [32]byte, size int, cl *preparedCL, err error) (*preparedCL, error) {
	if got := <-digest; !cryptoutil.ConstantTimeEqual(got[:], a.meta.Digest[:]) {
		err = ErrDigest
	} else {
		a.charge(trace.PhaseBitManipulation, simtime.SizeCost(float64(size), simtime.ManipBytesPerSec, a.cfg.ToolSlowdown))
	}
	if err != nil {
		cl.wipe()
		return nil, err
	}
	return cl, nil
}

// manipulate is the RapidWright step ⑤b: parse and validate the container,
// draw fresh secrets, and write them into the cell at loc. encoded is only
// read — it is the developer's package, shared by every board of a fleet —
// and the result borrows it.
func manipulate(encoded []byte, loc netlist.Location) (_ *preparedCL, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("smapp: manipulation: %w", err)
		}
	}()
	tool, err := bitman.Open(encoded)
	if err != nil {
		return nil, err
	}
	// Kerckhoff hardening: the reserved RoT cell must arrive zeroed. A
	// developer-shipped bitstream with pre-initialised "secrets" would be a
	// hidden, non-deployment-fresh key — refuse it.
	var cell [smlogic.SecretsSize]byte
	existing, err := tool.Image().AppendCellBytes(cell[:0], loc, 0, len(cell))
	if err != nil {
		return nil, err
	}
	for _, b := range existing {
		if b != 0 {
			return nil, fmt.Errorf("smapp: reserved RoT cell %s is pre-initialised — refusing to deploy", loc.Path)
		}
	}

	// Fresh Key_attest, Key_session and Ctr_session in the layout of the
	// HDK contract; the counter keeps headroom for a long session.
	secrets := make([]byte, smlogic.SecretsSize)
	if _, err := rand.Read(secrets); err != nil {
		return nil, err
	}
	ctr := secrets[smlogic.OffCtrSession:]
	ctrInit := binary.BigEndian.Uint64(ctr) >> 16
	binary.BigEndian.PutUint64(ctr, ctrInit)
	cl := &preparedCL{
		image:      tool.Image(),
		secrets:    secrets,
		keyAttest:  secrets[smlogic.OffKeyAttest : smlogic.OffKeyAttest+cryptoutil.AttestKeySize],
		keySession: secrets[smlogic.OffKeySession : smlogic.OffKeySession+cryptoutil.SessionKeySize],
		ctrInit:    ctrInit,
	}
	if err := tool.Inject(loc, 0, secrets); err != nil {
		cl.wipe()
		return nil, err
	}
	return cl, nil
}

// encrypt is ⑤c: the manipulated image encoded straight into its sealed
// container under Key_device.
func (a *SMApp) encrypt(cl *preparedCL, profile string) ([]byte, error) {
	a.charge(trace.PhaseBitVerifyEnc, simtime.SizeCost(float64(cl.image.EncodedLen()), simtime.GCMBytesPerSec, a.cfg.EnclaveSlowdown))
	sealed, err := cl.image.Encrypt(a.deviceKey, profile)
	if err != nil {
		return nil, fmt.Errorf("smapp: encryption: %w", err)
	}
	return sealed, nil
}

// AttestCL runs the verifier side of Figure 4a over the untrusted shell:
// fresh nonce, MAC over (N, DNA), verify the response MAC over (N+1, DNA').
func (a *SMApp) AttestCL() error {
	if a.keyAttest == nil {
		return fmt.Errorf("smapp: no CL deployed")
	}
	var nonce uint64
	if err := binary.Read(rand.Reader, binary.BigEndian, &nonce); err != nil {
		return err
	}
	dna := string(a.cfg.Shell.DNA())

	span := a.cfg.Clock.StartSpan()
	req := channel.AttestRequest{Nonce: nonce, DNA: dna}
	req.MAC = channel.AttestMACReq(a.keyAttest, req.Nonce, req.DNA)
	reqBytes, err := req.Encode()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCLAttestation, err)
	}
	respBytes, err := a.cfg.Shell.TransactPartition(a.cfg.Partition, reqBytes)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCLAttestation, err)
	}
	defer func() { a.cfg.Trace.Record(trace.PhaseCLAuth, span.Elapsed()) }()

	if msg, isErr := channel.DecodeError(respBytes); isErr {
		return fmt.Errorf("%w: CL rejected challenge: %s", ErrCLAttestation, msg)
	}
	resp, err := channel.DecodeAttestResponse(respBytes)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCLAttestation, err)
	}
	if resp.Value != nonce+1 {
		return fmt.Errorf("%w: wrong nonce echo", ErrCLAttestation)
	}
	if resp.DNA != dna {
		return fmt.Errorf("%w: DNA mismatch: CL reports %q, CSP claimed %q", ErrCLAttestation, resp.DNA, dna)
	}
	//lint:allow ct-compare SipHash tags are single uint64 words; a word-sized compare executes in constant time
	if channel.AttestMACResp(a.keyAttest, resp.Value, resp.DNA) != resp.MAC {
		return fmt.Errorf("%w: response MAC invalid", ErrCLAttestation)
	}
	a.attested = true

	// Cache hygiene: when the injected secrets came out of the fleet's
	// prepared-bitstream cache, every sibling board knows this Key_session
	// epoch. Rotate it before any register traffic flows so recorded frames
	// from one board can never replay against another. Key_attest stays
	// shared — it only ever MACs nonce-fresh challenges.
	if a.sharedSecrets {
		a.sharedSecrets = false
		if err := a.RekeySession(); err != nil {
			return fmt.Errorf("smapp: post-attest session rotation: %w", err)
		}
	}
	return nil
}

// Result seals the CL attestation outcome for the user enclave over the LA
// channel (Figure 4b, "CL Auth. Result").
func (a *SMApp) Result() ([]byte, error) {
	if a.laKey == nil {
		return nil, ErrNoChannel
	}
	if a.meta == nil {
		return nil, ErrNoMetadata
	}
	res := CLResult{Attested: a.attested, DNA: string(a.cfg.Shell.DNA()), Digest: a.meta.Digest}
	pt, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return cryptoutil.Seal(a.laKey, pt, []byte("cl-result"))
}

// OpenResult is the user-enclave-side helper decrypting a Result payload.
func OpenResult(laKey, sealed []byte) (CLResult, error) {
	pt, err := cryptoutil.Open(laKey, sealed, []byte("cl-result"))
	if err != nil {
		return CLResult{}, fmt.Errorf("smapp: result rejected: %w", err)
	}
	var res CLResult
	if err := json.Unmarshal(pt, &res); err != nil {
		return CLResult{}, fmt.Errorf("smapp: result malformed: %w", err)
	}
	return res, nil
}

// sessionSealer returns the secure channel's Sealer for the current
// Key_session epoch, expanding the key on first use after a deployment or
// rotation; callers hold mu.
func (a *SMApp) sessionSealer() (*channel.Sealer, error) {
	if a.sealer == nil {
		s, err := channel.NewSealer(a.keySession)
		if err != nil {
			return nil, err
		}
		a.sealer = s
	}
	return a.sealer, nil
}

// SecureReg forwards one register transaction over the Key_session channel
// (§4.5): seal, transact through the shell, open the response under the
// same counter, advance. The frame is built in the epoch's Sealer, so a
// warm call allocates nothing.
func (a *SMApp) SecureReg(txn channel.RegTxn) (channel.RegResult, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.attested {
		return channel.RegResult{}, ErrNotAttested
	}
	sealer, err := a.sessionSealer()
	if err != nil {
		return channel.RegResult{}, err
	}
	frame, err := sealer.SealRegRequest(a.ctr, txn)
	if err != nil {
		return channel.RegResult{}, err
	}
	respBytes, err := a.cfg.Shell.TransactPartition(a.cfg.Partition, frame)
	if err != nil {
		return channel.RegResult{}, err
	}
	if msg, isErr := channel.DecodeError(respBytes); isErr {
		return channel.RegResult{}, fmt.Errorf("smapp: CL rejected secure register frame: %s", msg)
	}
	res, err := sealer.OpenRegResponse(a.ctr, respBytes)
	if err != nil {
		return channel.RegResult{}, fmt.Errorf("smapp: secure response rejected: %w", err)
	}
	a.ctr++
	return res, nil
}

// SecureRegBatch forwards a whole register program over the Key_session
// channel as a single sealed frame: one counter tick covers the entire
// transaction vector, and the response MAC authenticates the result vector
// and its ordering in one shot. Results are appended to dst (pass nil, or
// a slice you own, to avoid aliasing the SMApp's scratch) and the returned
// slice is valid until the caller mutates dst. The frame and decode
// scratch are reused across calls, so the steady-state path allocates
// nothing.
func (a *SMApp) SecureRegBatch(txns []channel.RegTxn, dst []channel.RegResult) ([]channel.RegResult, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.attested {
		return nil, ErrNotAttested
	}
	sealer, err := a.sessionSealer()
	if err != nil {
		return nil, err
	}
	frame, err := sealer.SealRegBatchRequest(a.ctr, txns)
	if err != nil {
		return nil, err
	}
	respBytes, err := a.cfg.Shell.TransactPartition(a.cfg.Partition, frame)
	if err != nil {
		return nil, err
	}
	if msg, isErr := channel.DecodeError(respBytes); isErr {
		return nil, fmt.Errorf("smapp: CL rejected secure batch frame: %s", msg)
	}
	res, err := sealer.OpenRegBatchResponse(a.ctr, respBytes, dst)
	if err != nil {
		return nil, fmt.Errorf("smapp: secure batch response rejected: %w", err)
	}
	if len(res)-len(dst) != len(txns) {
		return nil, fmt.Errorf("smapp: secure batch response carries %d results for %d transactions", len(res)-len(dst), len(txns))
	}
	a.ctr++
	return res, nil
}

// RekeySession rotates the register channel's Key_session and Ctr_session:
// a fresh key and counter epoch, installed through the authenticated
// channel itself. Rotation invalidates every frame an observer recorded
// under the old epoch — the antidote to the bitstream-replay residue the
// runtime-attack tests document. The epoch's Sealer framed the rotation
// and is rekeyed in place, and the old Key_session is zeroed: nothing of
// the old epoch stays behind.
func (a *SMApp) RekeySession() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.attested {
		return ErrNotAttested
	}
	sealer, err := a.sessionSealer()
	if err != nil {
		return err
	}
	newKey := cryptoutil.RandomKey(cryptoutil.SessionKeySize)
	var newCtr uint64
	if err := binary.Read(rand.Reader, binary.BigEndian, &newCtr); err != nil {
		return err
	}
	newCtr >>= 16
	frame, err := sealer.SealRekeyRequest(a.ctr, newKey, newCtr)
	if err != nil {
		return err
	}
	respBytes, err := a.cfg.Shell.TransactPartition(a.cfg.Partition, frame)
	if err != nil {
		return err
	}
	if msg, isErr := channel.DecodeError(respBytes); isErr {
		return fmt.Errorf("smapp: rekey rejected by CL: %s", msg)
	}
	if err := sealer.OpenRekeyResponse(a.ctr, respBytes); err != nil {
		return fmt.Errorf("smapp: rekey ack rejected: %w", err)
	}
	if err := sealer.Rekey(newKey); err != nil {
		return err
	}
	clear(a.keySession)
	a.keySession = newKey
	a.ctr = newCtr
	mRekeys.Inc()
	return nil
}

// DNA reports the device identity as the shell claims it.
func (a *SMApp) DNA() fpga.DNA { return a.cfg.Shell.DNA() }
