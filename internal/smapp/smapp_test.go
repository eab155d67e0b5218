package smapp

import (
	"crypto/ecdh"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"salus/internal/accel"
	"salus/internal/bitstream"
	"salus/internal/channel"
	"salus/internal/cryptoutil"
	"salus/internal/manufacturer"
	"salus/internal/netlist"
	"salus/internal/sgx"
	"salus/internal/shell"
	"salus/internal/smlogic"
)

// harness wires an SM application to a manufactured device and an honest
// shell, plus a developer-compiled Conv CL.
type harness struct {
	app     *SMApp
	mfr     *manufacturer.Service
	sh      *shell.Shell
	encoded []byte
	digest  [32]byte
	loc     netlist.Location
	laKey   []byte // the "user enclave" side of the LA channel
}

func newHarness(t testing.TB, mods ...func(*Config)) *harness {
	t.Helper()
	return newHarnessOn(t, netlist.TestDevice, mods...)
}

// newHarnessOn is newHarness on a device of the given profile.
func newHarnessOn(t testing.TB, profile netlist.DeviceProfile, mods ...func(*Config)) *harness {
	t.Helper()
	mfr, err := manufacturer.New()
	if err != nil {
		t.Fatal(err)
	}
	dev, err := mfr.ManufactureDevice(profile, "A58275817")
	if err != nil {
		t.Fatal(err)
	}
	host, err := sgx.NewPlatform(mfr.Authority())
	if err != nil {
		t.Fatal(err)
	}
	sh := shell.New(dev)
	cfg := Config{Platform: host, Manufacturer: mfr, Shell: sh}
	for _, mod := range mods {
		mod(&cfg)
	}
	app, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mfr.TrustSMEnclave(app.Measurement())

	design, err := smlogic.Integrate("conv_cl", accel.Conv{}.Module())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := netlist.Implement(design, profile, 5)
	if err != nil {
		t.Fatal(err)
	}
	im := bitstream.FromPlaced(pl, smlogic.LogicID(accel.Conv{}))
	loc, _ := pl.Location(smlogic.SecretsCellPath)
	encoded := im.Encode()
	return &harness{
		app: app, mfr: mfr, sh: cfg.Shell,
		encoded: encoded,
		digest:  cryptoutil.Digest(encoded),
		loc:     loc,
	}
}

// establishLA plays the user-enclave side of the local attestation against
// the SM application, loading a verifier enclave on the same platform.
func (h *harness) establishLA(t testing.TB, host *sgx.Platform) {
	t.Helper()
	verifier := host.Load(sgx.EnclaveImage{Name: "user", Version: 1, Code: []byte("u")})
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	final, err := h.app.LocalAttestResponder(LAInit{
		VerifierMeasurement: verifier.Measurement(),
		VerifierPub:         priv.PublicKey().Bytes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := verifier.VerifyReport(final.Report); err != nil {
		t.Fatalf("SM report rejected: %v", err)
	}
	pub, err := ecdh.X25519().NewPublicKey(final.ResponderPub)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := priv.ECDH(pub)
	if err != nil {
		t.Fatal(err)
	}
	h.laKey = DeriveLAKey(shared)
}

func fullBoot(t testing.TB) (*harness, *sgx.Platform) {
	t.Helper()
	h := newHarness(t)
	h.deploy(t)
	return h, h.appPlatform()
}

// deploy runs Figure 3 ③–⑥ on the harness.
func (h *harness) deploy(t testing.TB) {
	t.Helper()
	h.prepare(t)
	if err := h.app.DeployCL(h.encoded); err != nil {
		t.Fatal(err)
	}
}

// prepare runs Figure 3 ③–④: local attestation against the platform the SM
// enclave runs on, metadata, device key — everything DeployCL needs.
func (h *harness) prepare(t testing.TB) {
	t.Helper()
	h.establishLA(t, h.appPlatform())
	sealed, err := SealMetadata(h.laKey, Metadata{Digest: h.digest, Loc: h.loc})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.app.ReceiveMetadata(sealed); err != nil {
		t.Fatal(err)
	}
	if err := h.app.FetchDeviceKey(); err != nil {
		t.Fatal(err)
	}
}

// appPlatform exposes the platform the SM enclave was loaded on.
func (h *harness) appPlatform() *sgx.Platform { return h.app.cfg.Platform }

func TestStateMachineOrdering(t *testing.T) {
	h := newHarness(t)
	if err := h.app.ReceiveMetadata([]byte("x")); !errors.Is(err, ErrNoChannel) {
		t.Errorf("metadata before LA: %v", err)
	}
	if _, err := h.app.Result(); !errors.Is(err, ErrNoChannel) {
		t.Errorf("result before LA: %v", err)
	}
	if err := h.app.DeployCL(h.encoded); !errors.Is(err, ErrNoMetadata) {
		t.Errorf("deploy before metadata: %v", err)
	}
	if err := h.app.AttestCL(); err == nil {
		t.Error("attest before deploy accepted")
	}
	if _, err := h.app.SecureReg(channelRegTxn()); !errors.Is(err, ErrNotAttested) {
		t.Errorf("secure reg before attestation: %v", err)
	}

	h.establishLA(t, h.appPlatform())
	sealed, err := SealMetadata(h.laKey, Metadata{Digest: h.digest, Loc: h.loc})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.app.ReceiveMetadata(sealed); err != nil {
		t.Fatal(err)
	}
	if err := h.app.DeployCL(h.encoded); !errors.Is(err, ErrNoDeviceKey) {
		t.Errorf("deploy before key fetch: %v", err)
	}
}

func TestFullFlowAndAttestation(t *testing.T) {
	h, _ := fullBoot(t)
	if h.app.Attested() {
		t.Error("attested before AttestCL")
	}
	if err := h.app.AttestCL(); err != nil {
		t.Fatal(err)
	}
	if !h.app.Attested() {
		t.Error("not attested after AttestCL")
	}
	sealed, err := h.app.Result()
	if err != nil {
		t.Fatal(err)
	}
	res, err := OpenResult(h.laKey, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Attested || res.DNA != "A58275817" || res.Digest != h.digest {
		t.Errorf("result = %+v", res)
	}
}

func TestSecureRegAfterAttestation(t *testing.T) {
	h, _ := fullBoot(t)
	if err := h.app.AttestCL(); err != nil {
		t.Fatal(err)
	}
	res, err := h.app.SecureReg(channelRegTxn())
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Errorf("secure reg result %+v", res)
	}
	// Counters advance across calls.
	if _, err := h.app.SecureReg(channelRegTxn()); err != nil {
		t.Errorf("second secure reg: %v", err)
	}
}

func TestMetadataChannelIntegrity(t *testing.T) {
	h := newHarness(t)
	h.establishLA(t, h.appPlatform())
	sealed, err := SealMetadata(h.laKey, Metadata{Digest: h.digest, Loc: h.loc})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), sealed...)
	bad[len(bad)-1] ^= 1
	if err := h.app.ReceiveMetadata(bad); err == nil {
		t.Error("accepted tampered metadata")
	}
	wrongKey, err := SealMetadata(cryptoutil.RandomKey(32), Metadata{Digest: h.digest, Loc: h.loc})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.app.ReceiveMetadata(wrongKey); err == nil {
		t.Error("accepted metadata under wrong channel key")
	}
}

func TestResultChannelIntegrity(t *testing.T) {
	h, _ := fullBoot(t)
	if err := h.app.AttestCL(); err != nil {
		t.Fatal(err)
	}
	sealed, err := h.app.Result()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), sealed...)
	bad[8] ^= 1
	if _, err := OpenResult(h.laKey, bad); err == nil {
		t.Error("accepted tampered result")
	}
	if _, err := OpenResult(cryptoutil.RandomKey(32), sealed); err == nil {
		t.Error("accepted result under wrong key")
	}
}

func TestLAResponderRejectsBadKey(t *testing.T) {
	h := newHarness(t)
	_, err := h.app.LocalAttestResponder(LAInit{
		VerifierMeasurement: sgx.Measurement{},
		VerifierPub:         []byte("not a curve point"),
	})
	if err == nil {
		t.Error("accepted malformed verifier key")
	}
}

func TestDeployBadLocation(t *testing.T) {
	h := newHarness(t)
	h.establishLA(t, h.appPlatform())
	badLoc := h.loc
	badLoc.FrameBase = 1 << 28
	sealed, err := SealMetadata(h.laKey, Metadata{Digest: h.digest, Loc: badLoc})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.app.ReceiveMetadata(sealed); err != nil {
		t.Fatal(err)
	}
	if err := h.app.FetchDeviceKey(); err != nil {
		t.Fatal(err)
	}
	if err := h.app.DeployCL(h.encoded); err == nil {
		t.Error("injected into out-of-image location")
	}
}

func TestFetchDeviceKeyUntrustedMeasurement(t *testing.T) {
	// A manufacturer that never whitelisted this SM build refuses the key.
	h := newHarness(t)
	mfr2, err := manufacturer.New()
	if err != nil {
		t.Fatal(err)
	}
	host2, err := sgx.NewPlatform(mfr2.Authority())
	if err != nil {
		t.Fatal(err)
	}
	dev2, err := mfr2.ManufactureDevice(netlist.TestDevice, "D2")
	if err != nil {
		t.Fatal(err)
	}
	app2, err := New(Config{Platform: host2, Manufacturer: mfr2, Shell: shell.New(dev2)})
	if err != nil {
		t.Fatal(err)
	}
	_ = h
	if err := app2.FetchDeviceKey(); err == nil {
		t.Error("untrusted SM measurement got a device key")
	}
}

func TestLABindingSensitivity(t *testing.T) {
	a := LABinding([]byte("pubA"), []byte("pubB"))
	if a == LABinding([]byte("pubX"), []byte("pubB")) || a == LABinding([]byte("pubA"), []byte("pubX")) {
		t.Error("binding insensitive to a key")
	}
	if a == LABinding([]byte("pubAp"), []byte("ubB")) {
		t.Error("binding has boundary ambiguity")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("accepted nil platform")
	}
}

func channelRegTxn() channel.RegTxn {
	return channel.RegTxn{Write: true, Addr: accel.RegParam0, Data: 1}
}

func TestRekeySession(t *testing.T) {
	h, _ := fullBoot(t)
	if err := h.app.RekeySession(); !errors.Is(err, ErrNotAttested) {
		t.Fatalf("rekey before attestation: %v", err)
	}
	if err := h.app.AttestCL(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.app.SecureReg(channelRegTxn()); err != nil {
		t.Fatal(err)
	}
	if err := h.app.RekeySession(); err != nil {
		t.Fatal(err)
	}
	// The channel keeps working under the new epoch.
	for i := 0; i < 3; i++ {
		if _, err := h.app.SecureReg(channelRegTxn()); err != nil {
			t.Fatalf("post-rekey txn %d: %v", i, err)
		}
	}
}

// TestRekeyZeroesTheOldSessionKey: a rotation leaves no copy of the old
// Key_session in the SM enclave — the bytes it held are zero, not merely
// unreferenced.
func TestRekeyZeroesTheOldSessionKey(t *testing.T) {
	h, _ := fullBoot(t)
	if err := h.app.AttestCL(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		held := h.app.keySession
		if len(held) == 0 || !slices.ContainsFunc(held, func(b byte) bool { return b != 0 }) {
			t.Fatal("no live Key_session to rotate")
		}
		if err := h.app.RekeySession(); err != nil {
			t.Fatal(err)
		}
		if slices.ContainsFunc(held, func(b byte) bool { return b != 0 }) {
			t.Fatalf("rotation %d left the old Key_session's bytes in memory", round)
		}
		if _, err := h.app.SecureReg(channelRegTxn()); err != nil {
			t.Fatalf("txn after rotation %d: %v", round, err)
		}
	}
}

func TestDeployRefusesPreInitialisedRoTCell(t *testing.T) {
	h := newHarness(t)
	h.establishLA(t, h.appPlatform())

	// A (misbehaving) developer ships a bitstream whose reserved secrets
	// cell already holds a value — and publishes the matching digest, so
	// the H check alone would pass.
	im, err := bitstream.Decode(h.encoded)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.SetCellBytes(h.loc, 0, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	poisoned := im.Encode()
	sealed, err := SealMetadata(h.laKey, Metadata{Digest: cryptoutil.Digest(poisoned), Loc: h.loc})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.app.ReceiveMetadata(sealed); err != nil {
		t.Fatal(err)
	}
	if err := h.app.FetchDeviceKey(); err != nil {
		t.Fatal(err)
	}
	if err := h.app.DeployCL(poisoned); err == nil {
		t.Error("deployed a bitstream with a pre-initialised RoT cell")
	}
}

// TestRekeyRetiresTheOldSealer: the SM enclave frames every secure message
// with one Sealer. After RekeySession — the same call the batch path makes
// when it rotates an epoch — that Sealer is rekeyed in place, not replaced,
// and every single and batched frame on the bus is sealed under the new key
// and none under the old.
func TestRekeyRetiresTheOldSealer(t *testing.T) {
	bus := &shell.Recorder{}
	h := newHarness(t, func(c *Config) { c.Shell = shell.New(c.Shell.Device(), shell.WithInterceptor(bus)) })
	h.deploy(t)
	if err := h.app.AttestCL(); err != nil {
		t.Fatal(err)
	}
	txns := []channel.RegTxn{channelRegTxn(), {Addr: accel.RegStatus}}
	traffic := func() {
		t.Helper()
		if _, err := h.app.SecureReg(channelRegTxn()); err != nil {
			t.Fatal(err)
		}
		if _, err := h.app.SecureRegBatch(txns, nil); err != nil {
			t.Fatal(err)
		}
	}
	traffic()
	oldKey, oldSealer := append([]byte(nil), h.app.keySession...), h.app.sealer
	if oldSealer == nil {
		t.Fatal("no Sealer after secure traffic")
	}
	if err := h.app.RekeySession(); err != nil {
		t.Fatal(err)
	}
	if h.app.sealer != oldSealer {
		t.Fatal("the rotation replaced the epoch's Sealer instead of rekeying it")
	}
	from := len(bus.Frames())
	traffic()
	if h.app.sealer != oldSealer {
		t.Fatal("the new epoch is not framed by the rekeyed Sealer")
	}

	// opens reports whether frame verifies and decrypts under key.
	opens := func(key, frame []byte) bool {
		ctr := binary.BigEndian.Uint64(frame[1:9])
		var err error
		switch channel.MsgType(frame) {
		case channel.MsgSecureReg:
			_, err = channel.OpenRegRequest(key, ctr, frame)
		case channel.MsgSecureRegResp:
			_, err = channel.OpenRegResponse(key, ctr, frame)
		case channel.MsgSecureRegBatch:
			_, err = channel.OpenRegBatchRequest(key, ctr, frame)
		case channel.MsgSecureRegBatchResp:
			_, err = channel.OpenRegBatchResponse(key, ctr, frame)
		default:
			t.Fatalf("unexpected frame type %#x after rotation", channel.MsgType(frame))
		}
		return err == nil
	}
	after := bus.Frames()[from:]
	if len(after) != 4 {
		t.Fatalf("recorded %d frames after rotation, want 4", len(after))
	}
	for i, f := range after {
		if opens(oldKey, f) {
			t.Errorf("frame %d (type %#x) after rotation opens under the old Key_session", i, channel.MsgType(f))
		}
		if !opens(h.app.keySession, f) {
			t.Errorf("frame %d (type %#x) after rotation does not open under the new Key_session", i, channel.MsgType(f))
		}
	}
}
