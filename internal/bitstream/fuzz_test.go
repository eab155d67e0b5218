package bitstream

import (
	"bytes"
	"errors"
	"testing"

	"salus/internal/cryptoutil"
	"salus/internal/netlist"
)

// checkEditsStayOutOfContainer is the borrowing contract of Decode: an
// image decoded from data may be edited at will, yet data stays byte for
// byte what it was, while Encode carries the edit and decodes clean.
func checkEditsStayOutOfContainer(t *testing.T, data []byte) {
	t.Helper()
	pristine := append([]byte(nil), data...)
	im, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	edit := []byte{0xA5, 0x5A, 0xC3}
	var edited *netlist.Location
	for i := range im.Header.Cells {
		c := im.Header.Cells[i]
		old, err := im.CellBytes(c, 0, len(edit))
		if err != nil || bytes.Equal(old, edit) {
			continue // a fuzzed cell table may point anywhere
		}
		if err := im.SetCellBytes(c, 0, edit); err != nil {
			t.Fatalf("cell %q readable but not writable: %v", c.Path, err)
		}
		edited = &c
		break
	}
	if !bytes.Equal(data, pristine) {
		t.Fatal("editing a decoded image wrote into the container it was decoded from")
	}
	re, err := Decode(im.Encode())
	if err != nil {
		t.Fatalf("re-encode of edited image rejected: %v", err)
	}
	if edited != nil {
		if got, err := re.CellBytes(*edited, 0, len(edit)); err != nil || !bytes.Equal(got, edit) {
			t.Fatalf("edit lost in Encode: cell reads % x (%v)", got, err)
		}
		if bytes.Equal(im.Encode(), pristine) {
			t.Fatal("Encode of an edited image equals the unedited container")
		}
	}
}

func TestDecodedImageNeverWritesItsContainer(t *testing.T) {
	plain := testImage(t, 3).Encode()
	checkEditsStayOutOfContainer(t, plain)
	checkEditsStayOutOfContainer(t, testImage(t, 3).EncodeCompressed())

	// Two images over one container edit independently.
	a, _ := Decode(plain)
	b, _ := Decode(plain)
	loc, _ := a.Cell("sm/secrets")
	if err := a.SetCellBytes(loc, 0, []byte("only in a")); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.CellBytes(loc, 0, 9); !bytes.Equal(got, make([]byte, 9)) {
		t.Errorf("edit of one image visible through another over the same container: %q", got)
	}
}

// FuzzDecode feeds arbitrary bytes — including mutations of valid
// bitstreams — to the decoder; it must either return a valid image or an
// error, never panic, and anything it accepts must re-encode canonically,
// honour the borrowing contract, and turn into a CRC mismatch when one of
// its payload bytes flips.
func FuzzDecode(f *testing.F) {
	d := &netlist.Design{Name: "cl", Modules: []netlist.ModuleSpec{
		{Name: "sm", Res: netlist.Resources{LUT: 10, Register: 10, BRAM: 1},
			Cells: []netlist.BRAMCell{{Name: "secrets"}}},
	}}
	pl, err := netlist.Implement(d, netlist.TestDevice, 1)
	if err != nil {
		f.Fatal(err)
	}
	valid := FromPlaced(pl, "x").Encode()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add([]byte(EncMagic))
	f.Add(valid[:64])
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/3] ^= 0xFF
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := Decode(data)
		if err != nil {
			return
		}
		// Accepted input: must verify and re-encode decodably.
		if err := im.VerifyFrames(); err != nil {
			t.Fatalf("accepted image fails frame ECC: %v", err)
		}
		re := im.Encode()
		if _, err := Decode(re); err != nil {
			t.Fatalf("re-encode of accepted image rejected: %v", err)
		}
		checkEditsStayOutOfContainer(t, data)
		if start, n := payloadSpan(data); n > 0 {
			flipped := append([]byte(nil), data...)
			flipped[start+n/2] ^= 0x01
			if _, err := Decode(flipped); !errors.Is(err, ErrCRC) {
				t.Fatalf("payload byte %d flipped: Decode = %v, want ErrCRC", n/2, err)
			}
		}
	})
}

// FuzzDecrypt ensures the encrypted-container path never panics and only
// round-trips authentic ciphertexts.
func FuzzDecrypt(f *testing.F) {
	key := cryptoutil.RandomKey(cryptoutil.DeviceKeySize)
	f.Add([]byte(EncMagic), []byte("xctest"))
	f.Add([]byte{}, []byte(""))
	f.Fuzz(func(t *testing.T, data, device []byte) {
		if _, err := Decrypt(data, key, string(device)); err == nil {
			if !IsEncrypted(data) {
				t.Fatal("Decrypt succeeded on a non-encrypted container")
			}
		}
	})
}
