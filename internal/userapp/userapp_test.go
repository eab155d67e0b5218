package userapp

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"testing"

	"salus/internal/accel"
	"salus/internal/bitstream"
	"salus/internal/cryptoutil"
	"salus/internal/manufacturer"
	"salus/internal/netlist"
	"salus/internal/sgx"
	"salus/internal/shell"
	"salus/internal/smapp"
	"salus/internal/smlogic"
)

// rig assembles user app + SM app on one platform with a deployable CL.
type rig struct {
	user    *UserApp
	sm      *smapp.SMApp
	encoded []byte
	md      smapp.Metadata
}

func newRig(t testing.TB) *rig {
	t.Helper()
	mfr, err := manufacturer.New()
	if err != nil {
		t.Fatal(err)
	}
	dev, err := mfr.ManufactureDevice(netlist.TestDevice, "A58275817")
	if err != nil {
		t.Fatal(err)
	}
	host, err := sgx.NewPlatform(mfr.Authority())
	if err != nil {
		t.Fatal(err)
	}
	sh := shell.New(dev)
	sm, err := smapp.New(smapp.Config{Platform: host, Manufacturer: mfr, Shell: sh})
	if err != nil {
		t.Fatal(err)
	}
	mfr.TrustSMEnclave(sm.Measurement())
	user, err := New(Config{Platform: host, UserProgram: []byte("prog"), SM: sm, Shell: sh})
	if err != nil {
		t.Fatal(err)
	}

	design, err := smlogic.Integrate("conv_cl", accel.Conv{}.Module())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := netlist.Implement(design, netlist.TestDevice, 9)
	if err != nil {
		t.Fatal(err)
	}
	im := bitstream.FromPlaced(pl, smlogic.LogicID(accel.Conv{}))
	loc, _ := pl.Location(smlogic.SecretsCellPath)
	encoded := im.Encode()
	return &rig{
		user:    user,
		sm:      sm,
		encoded: encoded,
		md:      smapp.Metadata{Digest: cryptoutil.Digest(encoded), Loc: loc},
	}
}

func (r *rig) bootThroughCL(t testing.TB) {
	t.Helper()
	if err := r.user.LocalAttestSM(); err != nil {
		t.Fatal(err)
	}
	if err := r.user.ForwardMetadata(r.md); err != nil {
		t.Fatal(err)
	}
	if err := r.sm.FetchDeviceKey(); err != nil {
		t.Fatal(err)
	}
	if err := r.sm.DeployCL(r.encoded); err != nil {
		t.Fatal(err)
	}
	if err := r.sm.AttestCL(); err != nil {
		t.Fatal(err)
	}
	if err := r.user.CollectCLResult(); err != nil {
		t.Fatal(err)
	}
}

func TestImageMeasuresProgram(t *testing.T) {
	a := Image([]byte("prog-a")).Measure()
	b := Image([]byte("prog-b")).Measure()
	if a == b {
		t.Error("different user programs share a measurement")
	}
}

func TestOrderingErrors(t *testing.T) {
	r := newRig(t)
	if err := r.user.ForwardMetadata(r.md); !errors.Is(err, ErrNoLA) {
		t.Errorf("forward before LA: %v", err)
	}
	if err := r.user.CollectCLResult(); !errors.Is(err, ErrNoLA) {
		t.Errorf("collect before LA: %v", err)
	}
	if _, err := r.user.GenerateRAResponse([]byte("n"), 0); !errors.Is(err, ErrNoCLResult) {
		t.Errorf("RA before result: %v", err)
	}
	if err := r.user.ReceiveDataKey(nil, nil); err == nil {
		t.Error("data key before RA accepted")
	}
	if _, err := r.user.DataKey(); err == nil {
		t.Error("data key read before provisioning")
	}
}

func TestLocalAttestRecordsSMMeasurement(t *testing.T) {
	r := newRig(t)
	if err := r.user.LocalAttestSM(); err != nil {
		t.Fatal(err)
	}
	if r.user.smID != r.sm.Measurement() {
		t.Error("recorded SM measurement wrong")
	}
}

func TestCollectResultChecksDigest(t *testing.T) {
	r := newRig(t)
	r.bootThroughCL(t)
	res, err := r.user.CLResult()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Attested || res.Digest != r.md.Digest {
		t.Errorf("result %+v", res)
	}
}

func TestGenerateRARequiresAttestedCL(t *testing.T) {
	r := newRig(t)
	// Deploy a CL but skip attestation: the SM result reports
	// attested=false and the user enclave refuses to quote.
	if err := r.user.LocalAttestSM(); err != nil {
		t.Fatal(err)
	}
	if err := r.user.ForwardMetadata(r.md); err != nil {
		t.Fatal(err)
	}
	if err := r.sm.FetchDeviceKey(); err != nil {
		t.Fatal(err)
	}
	if err := r.sm.DeployCL(r.encoded); err != nil {
		t.Fatal(err)
	}
	if err := r.user.CollectCLResult(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.user.GenerateRAResponse([]byte("n"), 0); !errors.Is(err, ErrCLFailed) {
		t.Errorf("quoted an unattested platform: %v", err)
	}
}

func TestRAResponseAndDataKey(t *testing.T) {
	r := newRig(t)
	r.bootThroughCL(t)
	nonce := []byte("fresh-nonce")
	q, err := r.user.GenerateRAResponse(nonce, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := r.user.CLResult()
	want := ChainBinding(nonce, r.user.smID, res, q.ReportData[32:])
	if q.ReportData != want {
		t.Error("quote report data is not the chain binding")
	}

	dataKey := cryptoutil.RandomKey(16)
	provision(t, r, q, dataKey)
	got, err := r.user.DataKey()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, dataKey) {
		t.Error("provisioned data key mismatch")
	}
}

// provision seals dataKey to the enclave key q carries, as the data owner
// does, and delivers it.
func provision(t *testing.T, r *rig, q sgx.Quote, dataKey []byte) {
	t.Helper()
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := ecdh.X25519().NewPublicKey(q.ReportData[32:])
	if err != nil {
		t.Fatal(err)
	}
	shared, err := priv.ECDH(pub)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := cryptoutil.Seal(cryptoutil.DeriveKey(shared, "salus/data-key", 32), dataKey, []byte("data-key"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.user.ReceiveDataKey(priv.PublicKey().Bytes(), sealed); err != nil {
		t.Fatal(err)
	}
}

// TestZeroizeClearsTheDataKey: Zeroize wipes the raw data-key bytes the
// enclave held, not only its reference to them, and the enclave stops
// serving the key.
func TestZeroizeClearsTheDataKey(t *testing.T) {
	r := newRig(t)
	r.bootThroughCL(t)
	q, err := r.user.GenerateRAResponse([]byte("n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	provision(t, r, q, cryptoutil.RandomKey(16))
	if _, err := r.user.DataAEAD(); err != nil {
		t.Fatal(err)
	}
	held := r.user.dataKey
	if len(held) != 16 || bytes.Equal(held, make([]byte, 16)) {
		t.Fatal("no live data key to zeroize")
	}
	r.user.Zeroize()
	if !bytes.Equal(held, make([]byte, 16)) {
		t.Error("the data key's bytes survived Zeroize")
	}
	if _, err := r.user.DataKey(); err == nil {
		t.Error("the enclave still serves the data key after Zeroize")
	}
}

func TestReceiveDataKeyRejectsTamper(t *testing.T) {
	r := newRig(t)
	r.bootThroughCL(t)
	q, err := r.user.GenerateRAResponse([]byte("n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := ecdh.X25519().NewPublicKey(q.ReportData[32:])
	if err != nil {
		t.Fatal(err)
	}
	shared, err := priv.ECDH(pub)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := cryptoutil.Seal(cryptoutil.DeriveKey(shared, "salus/data-key", 32), cryptoutil.RandomKey(16), []byte("data-key"))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), sealed...)
	bad[0] ^= 1
	if err := r.user.ReceiveDataKey(priv.PublicKey().Bytes(), bad); err == nil {
		t.Error("accepted tampered data key")
	}
	if err := r.user.ReceiveDataKey([]byte("junk"), sealed); err == nil {
		t.Error("accepted malformed sender key")
	}
}

func TestChainBindingSensitivity(t *testing.T) {
	res := smapp.CLResult{Attested: true, DNA: "D", Digest: [32]byte{1}}
	sm := sgx.Measurement{2}
	base := ChainBinding([]byte("n"), sm, res, []byte("pub"))

	if ChainBinding([]byte("m"), sm, res, []byte("pub")) == base {
		t.Error("nonce not bound")
	}
	sm2 := sm
	sm2[0] ^= 1
	if ChainBinding([]byte("n"), sm2, res, []byte("pub")) == base {
		t.Error("SM measurement not bound")
	}
	res2 := res
	res2.Attested = false
	if ChainBinding([]byte("n"), sm, res2, []byte("pub")) == base {
		t.Error("attested bit not bound")
	}
	res3 := res
	res3.DNA = "X"
	if ChainBinding([]byte("n"), sm, res3, []byte("pub")) == base {
		t.Error("DNA not bound")
	}
	res4 := res
	res4.Digest[0] ^= 1
	if ChainBinding([]byte("n"), sm, res4, []byte("pub")) == base {
		t.Error("digest not bound")
	}
	if ChainBinding([]byte("n"), sm, res, []byte("puc")) == base {
		t.Error("data pub not bound")
	}
}

func TestUnchainedQuoteIsBaselineOnly(t *testing.T) {
	r := newRig(t)
	q := r.user.GenerateUnchainedQuote([]byte("n"), 0)
	if q.MRENCLAVE != r.user.Measurement() {
		t.Error("baseline quote identity wrong")
	}
	// It must NOT satisfy the cascaded verifier's binding for any result.
	res := smapp.CLResult{Attested: true, DNA: "A58275817"}
	if q.ReportData == ChainBinding([]byte("n"), r.sm.Measurement(), res, q.ReportData[32:]) {
		t.Error("baseline quote accidentally chains")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("accepted nil platform")
	}
}
