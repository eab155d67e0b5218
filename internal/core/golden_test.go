package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"salus/internal/accel"
	"salus/internal/bitman"
	"salus/internal/bitstream"
	"salus/internal/netlist"
)

// TestContainerBytesAreGolden pins the container format bit for bit: the
// hashes below were computed at the commit before Encode became a single
// pass over a borrowed image, and every producer of container bytes — the
// developer flow (and with it configPattern's fill), the manipulation
// tool's Serialize, and the compressed encoder and its round trip — must
// keep producing them.
func TestContainerBytesAreGolden(t *testing.T) {
	sum := func(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:]) }
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s: sha256 %s, golden %s", what, got, want)
		}
	}

	pkg, err := DevelopCL(accel.Conv{}, netlist.TestDevice, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("DevelopCL(Conv, TestDevice, 1).Encoded", sum(pkg.Encoded), goldenTestDeviceEncoded)
	pristine := append([]byte(nil), pkg.Encoded...)

	tool, err := bitman.Open(pkg.Encoded)
	if err != nil {
		t.Fatal(err)
	}
	secret := make([]byte, 64)
	for i := range secret {
		secret[i] = byte(0xA0 + i)
	}
	if err := tool.Inject(pkg.Loc, 0, secret); err != nil {
		t.Fatal(err)
	}
	check("Open → Inject → Serialize", sum(tool.Serialize()), goldenTestDeviceInjected)

	im, err := bitstream.Decode(pkg.Encoded)
	if err != nil {
		t.Fatal(err)
	}
	compressed := im.EncodeCompressed()
	check("EncodeCompressed", sum(compressed), goldenTestDeviceCompressed)
	expanded, err := bitstream.Decode(compressed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(expanded.Encode(), pristine) {
		t.Error("compressed Decode → Encode does not reproduce the uncompressed container")
	}
	if !bytes.Equal(pkg.Encoded, pristine) {
		t.Error("the developer's container was modified by tools that only borrowed it")
	}

	if testing.Short() {
		return
	}
	u200, err := DevelopCL(accel.Conv{}, netlist.U200, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("DevelopCL(Conv, U200, 1).Encoded", sum(u200.Encoded), goldenU200Encoded)
}

const (
	goldenTestDeviceEncoded    = "a2518677c15bfd0e40f069a2d7978a21c1bc3f43529823498cf72259ccf54e46"
	goldenTestDeviceInjected   = "98ac7e3b82b2eec1e0b717077dec34bfa88251b1fe3b6028b15b3953157557a6"
	goldenTestDeviceCompressed = "9eeef0add630aec934c4529731908ff165be80fac3853875b5b7e40a60c83ddc"
	goldenU200Encoded          = "e80f89b5e65799019af380d4910c0e4c555f12e902f25452809eeebfd3b248bb"
)
