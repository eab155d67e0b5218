package fpga

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"salus/internal/bitstream"
	"salus/internal/cryptoutil"
	"salus/internal/netlist"
)

// echoCL is a minimal CL for device tests: it echoes transactions and
// exposes the secret its bitstream carried.
type echoCL struct {
	secret []byte
	dna    DNA
}

func (e *echoCL) LogicID() string { return "echo-v1" }
func (e *echoCL) HandleTransaction(req []byte) ([]byte, error) {
	if string(req) == "secret?" {
		// A real CL would never do this; the test logic does, so tests can
		// check which secret a given load carries.
		return e.secret, nil
	}
	return append([]byte("echo:"), req...), nil
}

func init() {
	RegisterLogic("echo-v1", func(cfg CLConfig) (CL, error) {
		loc, ok := cfg.Image.Cell("sm/secrets")
		if !ok {
			return nil, fmt.Errorf("no secrets cell")
		}
		sec, err := cfg.Image.CellBytes(loc, 0, 16)
		if err != nil {
			return nil, err
		}
		return &echoCL{secret: sec, dna: cfg.DNA}, nil
	})
}

func testEncoded(t testing.TB, secret byte) []byte {
	t.Helper()
	d := &netlist.Design{Name: "cl", Modules: []netlist.ModuleSpec{
		{Name: "accel", Res: netlist.Resources{LUT: 100, Register: 100, BRAM: 1}},
		{Name: "sm", Res: netlist.Resources{LUT: 100, Register: 100, BRAM: 2},
			Cells: []netlist.BRAMCell{{Name: "secrets", Init: bytes.Repeat([]byte{secret}, 16)}}},
	}}
	pl, err := netlist.Implement(d, netlist.TestDevice, 21)
	if err != nil {
		t.Fatal(err)
	}
	return bitstream.FromPlaced(pl, "echo-v1").Encode()
}

func newDevice(t testing.TB, opts ...Option) *Device {
	t.Helper()
	dev, err := Manufacture(netlist.TestDevice, "A58275817", opts...)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestManufactureValidation(t *testing.T) {
	if _, err := Manufacture(netlist.TestDevice, ""); err == nil {
		t.Error("accepted empty DNA")
	}
	bad := netlist.DeviceProfile{Name: "x"}
	if _, err := Manufacture(bad, "d"); err == nil {
		t.Error("accepted invalid profile")
	}
}

func TestFuseKeyOnce(t *testing.T) {
	dev := newDevice(t)
	key := cryptoutil.RandomKey(cryptoutil.DeviceKeySize)
	if err := dev.FuseKey(key); err != nil {
		t.Fatal(err)
	}
	if err := dev.FuseKey(key); err == nil {
		t.Error("eFUSE programmed twice")
	}
	if err := newDevice(t).FuseKey(nil); err == nil {
		t.Error("fused empty key")
	}
}

func TestProgramPlaintext(t *testing.T) {
	dev := newDevice(t)
	if err := dev.ICAP().Program(testEncoded(t, 0xAA)); err != nil {
		t.Fatal(err)
	}
	cl, err := dev.CL(0)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.HandleTransaction([]byte("hi"))
	if err != nil || string(resp) != "echo:hi" {
		t.Errorf("resp=%q err=%v", resp, err)
	}
	if dev.Loads() != 1 {
		t.Errorf("loads = %d", dev.Loads())
	}
}

func TestProgramEncrypted(t *testing.T) {
	dev := newDevice(t)
	key := cryptoutil.RandomKey(cryptoutil.DeviceKeySize)
	if err := dev.FuseKey(key); err != nil {
		t.Fatal(err)
	}
	sealed, err := bitstream.Encrypt(testEncoded(t, 0x77), key, netlist.TestDevice.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.ICAP().Program(sealed); err != nil {
		t.Fatal(err)
	}
	cl, _ := dev.CL(0)
	sec, _ := cl.HandleTransaction([]byte("secret?"))
	if !bytes.Equal(sec, bytes.Repeat([]byte{0x77}, 16)) {
		t.Errorf("loaded secret = % x", sec)
	}
}

func TestProgramEncryptedRequiresFuse(t *testing.T) {
	dev := newDevice(t)
	key := cryptoutil.RandomKey(cryptoutil.DeviceKeySize)
	sealed, _ := bitstream.Encrypt(testEncoded(t, 1), key, netlist.TestDevice.Name)
	if err := dev.ICAP().Program(sealed); !errors.Is(err, ErrNotFused) {
		t.Errorf("err = %v, want ErrNotFused", err)
	}
}

func TestProgramEncryptedRejectsTamper(t *testing.T) {
	dev := newDevice(t)
	key := cryptoutil.RandomKey(cryptoutil.DeviceKeySize)
	if err := dev.FuseKey(key); err != nil {
		t.Fatal(err)
	}
	sealed, _ := bitstream.Encrypt(testEncoded(t, 1), key, netlist.TestDevice.Name)
	bad := append([]byte(nil), sealed...)
	bad[len(bad)/2] ^= 1
	if err := dev.ICAP().Program(bad); !errors.Is(err, ErrBadBitstream) {
		t.Errorf("err = %v, want ErrBadBitstream", err)
	}
	if _, err := dev.CL(0); !errors.Is(err, ErrNoCL) {
		t.Error("tampered load instantiated a CL")
	}
}

func TestProgramWrongDeviceKey(t *testing.T) {
	dev := newDevice(t)
	if err := dev.FuseKey(cryptoutil.RandomKey(cryptoutil.DeviceKeySize)); err != nil {
		t.Fatal(err)
	}
	other := cryptoutil.RandomKey(cryptoutil.DeviceKeySize)
	sealed, _ := bitstream.Encrypt(testEncoded(t, 1), other, netlist.TestDevice.Name)
	if err := dev.ICAP().Program(sealed); err == nil {
		t.Error("accepted bitstream encrypted under another device's key")
	}
}

func TestProgramWrongDeviceProfile(t *testing.T) {
	dev := newDevice(t)
	d := &netlist.Design{Name: "cl", Modules: []netlist.ModuleSpec{
		{Name: "sm", Res: netlist.Resources{LUT: 1, Register: 1, BRAM: 1},
			Cells: []netlist.BRAMCell{{Name: "secrets"}}},
	}}
	// Implement on a profile with a different IDCode.
	odd := netlist.TestDevice
	odd.Name = "xcother"
	odd.IDCode = 0x1234
	pl, err := netlist.Implement(d, odd, 1)
	if err != nil {
		t.Fatal(err)
	}
	enc := bitstream.FromPlaced(pl, "echo-v1").Encode()
	if err := dev.ICAP().Program(enc); !errors.Is(err, ErrBadBitstream) {
		t.Errorf("err = %v, want ErrBadBitstream", err)
	}
}

func TestProgramUnknownLogic(t *testing.T) {
	dev := newDevice(t)
	d := &netlist.Design{Name: "cl", Modules: []netlist.ModuleSpec{
		{Name: "sm", Res: netlist.Resources{LUT: 1, Register: 1, BRAM: 1},
			Cells: []netlist.BRAMCell{{Name: "secrets"}}},
	}}
	pl, err := netlist.Implement(d, netlist.TestDevice, 1)
	if err != nil {
		t.Fatal(err)
	}
	enc := bitstream.FromPlaced(pl, "no-such-logic").Encode()
	if err := dev.ICAP().Program(enc); !errors.Is(err, ErrUnknownLogic) {
		t.Errorf("err = %v, want ErrUnknownLogic", err)
	}
}

func TestPartialReconfigurationFullyOverwrites(t *testing.T) {
	// Observation 2: loading a new CL replaces everything, including the
	// old CL's secrets.
	dev := newDevice(t)
	icap := dev.ICAP()
	if err := icap.Program(testEncoded(t, 0x11)); err != nil {
		t.Fatal(err)
	}
	if err := icap.Program(testEncoded(t, 0x22)); err != nil {
		t.Fatal(err)
	}
	cl, _ := dev.CL(0)
	sec, _ := cl.HandleTransaction([]byte("secret?"))
	if !bytes.Equal(sec, bytes.Repeat([]byte{0x22}, 16)) {
		t.Errorf("partition still holds old secret: % x", sec)
	}
	if dev.Loads() != 2 {
		t.Errorf("loads = %d", dev.Loads())
	}
}

func TestReadbackDisabledByDefault(t *testing.T) {
	dev := newDevice(t)
	if err := dev.ICAP().Program(testEncoded(t, 0x33)); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.ICAP().Readback(0); !errors.Is(err, ErrReadbackDisabled) {
		t.Errorf("err = %v, want ErrReadbackDisabled", err)
	}
}

func TestReadbackEnabledLeaksConfiguration(t *testing.T) {
	// The legacy-ICAP ablation: with readback on, the shell can recover
	// the plaintext configuration, including injected secrets.
	dev := newDevice(t, WithReadbackEnabled())
	if err := dev.ICAP().Program(testEncoded(t, 0x44)); err != nil {
		t.Fatal(err)
	}
	raw, err := dev.ICAP().Readback(0)
	if err != nil {
		t.Fatal(err)
	}
	im, err := bitstream.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	loc, _ := im.Cell("sm/secrets")
	sec, _ := im.CellBytes(loc, 0, 16)
	if !bytes.Equal(sec, bytes.Repeat([]byte{0x44}, 16)) {
		t.Errorf("readback secret = % x", sec)
	}
}

func TestReadbackEmptyPartition(t *testing.T) {
	dev := newDevice(t, WithReadbackEnabled())
	if _, err := dev.ICAP().Readback(0); !errors.Is(err, ErrNoCL) {
		t.Errorf("err = %v, want ErrNoCL", err)
	}
}

func TestMultiplePartitions(t *testing.T) {
	dev := newDevice(t, WithPartitions(2))
	if dev.Partitions() != 2 {
		t.Fatalf("partitions = %d", dev.Partitions())
	}
	icap := dev.ICAP()
	if err := icap.ProgramPartition(0, testEncoded(t, 0x01)); err != nil {
		t.Fatal(err)
	}
	if err := icap.ProgramPartition(1, testEncoded(t, 0x02)); err != nil {
		t.Fatal(err)
	}
	c0, _ := dev.CL(0)
	c1, _ := dev.CL(1)
	s0, _ := c0.HandleTransaction([]byte("secret?"))
	s1, _ := c1.HandleTransaction([]byte("secret?"))
	if bytes.Equal(s0, s1) {
		t.Error("partitions share state")
	}
	if err := icap.ProgramPartition(5, testEncoded(t, 3)); err == nil {
		t.Error("programmed out-of-range partition")
	}
}

func TestCLPartitionBounds(t *testing.T) {
	dev := newDevice(t)
	if _, err := dev.CL(-1); err == nil {
		t.Error("accepted negative partition")
	}
	if _, err := dev.CL(0); !errors.Is(err, ErrNoCL) {
		t.Errorf("err = %v, want ErrNoCL", err)
	}
}

func TestResetClearsPartitionsKeepsFuse(t *testing.T) {
	dev := newDevice(t)
	key := cryptoutil.RandomKey(cryptoutil.DeviceKeySize)
	if err := dev.FuseKey(key); err != nil {
		t.Fatal(err)
	}
	sealed, err := bitstream.Encrypt(testEncoded(t, 0x66), key, netlist.TestDevice.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.ICAP().Program(sealed); err != nil {
		t.Fatal(err)
	}
	dev.Reset()
	if _, err := dev.CL(0); !errors.Is(err, ErrNoCL) {
		t.Error("CL survived a power cycle")
	}
	// The eFUSE persists: an encrypted load still works, no re-fusing.
	if err := dev.ICAP().Program(sealed); err != nil {
		t.Errorf("encrypted load after reset: %v", err)
	}
	if err := dev.FuseKey(key); err == nil {
		t.Error("eFUSE writable after reset")
	}
}

// TestLoadedImageIsTheFabricsOwn: the partition's image borrows the bytes
// it was decoded from, so those must belong to the fabric. Whatever the
// shell does afterwards to the slice it handed in — plaintext or ciphertext
// — and whatever is loaded next door, the configuration stays what was
// programmed.
func TestLoadedImageIsTheFabricsOwn(t *testing.T) {
	key := cryptoutil.RandomKey(cryptoutil.DeviceKeySize)
	forms := map[string]func([]byte) []byte{
		"plaintext": func(enc []byte) []byte { return enc },
		"encrypted": func(enc []byte) []byte {
			sealed, err := bitstream.Encrypt(enc, key, netlist.TestDevice.Name)
			if err != nil {
				t.Fatal(err)
			}
			return sealed
		},
	}
	for name, form := range forms {
		t.Run(name, func(t *testing.T) {
			dev := newDevice(t, WithPartitions(2))
			if err := dev.FuseKey(key); err != nil {
				t.Fatal(err)
			}
			data := form(testEncoded(t, 0x5A))
			if err := dev.ICAP().ProgramPartition(0, data); err != nil {
				t.Fatal(err)
			}
			for i := range data {
				data[i] ^= 0xFF
			}
			if err := dev.ICAP().ProgramPartition(1, form(testEncoded(t, 0x11))); err != nil {
				t.Fatal(err)
			}
			im := dev.parts[0].image
			loc, _ := im.Cell("sm/secrets")
			if got, err := im.CellBytes(loc, 0, 16); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0x5A}, 16)) {
				t.Errorf("loaded secrets cell reads % x (%v) after the caller's buffer was overwritten", got, err)
			}
			if err := im.VerifyFrames(); err != nil {
				t.Errorf("loaded configuration no longer verifies: %v", err)
			}
		})
	}
}
