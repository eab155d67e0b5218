package bitstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"salus/internal/cryptoutil"
)

// payloadSpan walks a container as Decode does and returns where its FDRI
// frame payload lies; the global CRC word follows it after one packet word
// and the DESYNC command after three.
func payloadSpan(data []byte) (start, n int) {
	r := &reader{data: data}
	r.take(len(Magic))
	r.take(int(r.u32()))
	for r.remaining() >= 4 {
		if r.u32() == SyncWord {
			break
		}
	}
	expectPacket(r, regIDCODE)
	r.u32()
	expectPacket(r, regFAR)
	r.u32()
	expectPacket(r, regCMD)
	r.u32()
	expectPacket(r, regFDRI)
	n = int(r.u32()&0x07FFFFFF) * 4
	return r.pos, n
}

// TestDecodeVerdicts pins which error wins when a container is broken in
// more than one place: the global CRC runs beside the other checks, and a
// mismatch of it is reported whatever else is wrong, as when the checks ran
// one after another.
func TestDecodeVerdicts(t *testing.T) {
	im := testImage(t, 12)
	type edit func(data []byte, start int)
	flipData := func(off int) edit { return func(d []byte, start int) { d[start+off] ^= 0x40 } }
	desync := func(d []byte, start int) {
		_, n := payloadSpan(d)
		d[start+n+12] ^= 0xFF
	}
	zeroRepeat := func(d []byte, start int) { binary.BigEndian.PutUint32(d[start:], 0) }
	for _, container := range []struct {
		name string
		data []byte
		// firstData is the payload offset of the first frame's first
		// data byte: compressed records lead with a repeat count.
		firstData int
	}{{"plain", im.Encode(), 0}, {"compressed", im.EncodeCompressed(), 4}} {
		for _, tc := range []struct {
			name   string
			edit   edit
			fixCRC bool
			want   error
		}{
			{"intact", func([]byte, int) {}, true, nil},
			{"bad CRC", func([]byte, int) {}, false, ErrCRC},
			{"bad ECC", flipData(container.firstData), true, ErrFrameECC},
			{"bad CRC and bad ECC", flipData(container.firstData), false, ErrCRC},
			{"bad DESYNC", desync, true, ErrCorrupt},
			{"bad CRC and bad DESYNC", desync, false, ErrCRC},
		} {
			t.Run(container.name+"/"+tc.name, func(t *testing.T) {
				checkVerdict(t, container.data, tc.edit, tc.fixCRC, tc.want)
			})
		}
		if container.name == "compressed" {
			t.Run("compressed/bad record", func(t *testing.T) {
				checkVerdict(t, container.data, zeroRepeat, true, ErrCorrupt)
			})
			t.Run("compressed/bad CRC and bad record", func(t *testing.T) {
				checkVerdict(t, container.data, zeroRepeat, false, ErrCRC)
			})
		}
	}
}

// checkVerdict decodes a copy of data with edit applied to its payload and
// the global CRC either recomputed over the edited payload or left wrong.
func checkVerdict(t *testing.T, data []byte, edit func([]byte, int), fixCRC bool, want error) {
	t.Helper()
	d := append([]byte(nil), data...)
	start, n := payloadSpan(d)
	edit(d, start)
	crc := crc32.ChecksumIEEE(d[start : start+n])
	if !fixCRC {
		crc ^= 1
	}
	binary.BigEndian.PutUint32(d[start+n+4:], crc)
	_, err := Decode(d)
	if !errors.Is(err, want) {
		t.Errorf("Decode = %v, want %v", err, want)
	}
}

// TestImageEncrypt: sealing an image is Encrypt of its Encode — for an
// owned image, and for one that borrows its container and has patched
// frames over it — and leaves the borrowed container untouched.
func TestImageEncrypt(t *testing.T) {
	key := cryptoutil.RandomKey(cryptoutil.DeviceKeySize)
	container := testImage(t, 13).Encode()
	pristine := append([]byte(nil), container...)
	borrowed, err := Decode(container)
	if err != nil {
		t.Fatal(err)
	}
	loc, _ := borrowed.Cell("sm/secrets")
	if err := borrowed.SetCellBytes(loc, 0, bytes.Repeat([]byte{0x3C}, 40)); err != nil {
		t.Fatal(err)
	}
	for name, im := range map[string]*Image{"owned": testImage(t, 13), "borrowed": borrowed} {
		sealed, err := im.Encrypt(key, "xctest")
		if err != nil {
			t.Fatal(err)
		}
		if len(sealed) != len(EncMagic)+im.EncodedLen()+cryptoutil.SealOverhead {
			t.Errorf("%s: sealed container of %d bytes for a %d-byte image", name, len(sealed), im.EncodedLen())
		}
		pt, err := Decrypt(sealed, key, "xctest")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(pt, im.Encode()) {
			t.Errorf("%s: decrypted container differs from Encode", name)
		}
	}
	if !bytes.Equal(container, pristine) {
		t.Error("sealing a borrowing image wrote into its container")
	}
	if _, err := testImage(t, 13).Encrypt(key[:5], "xctest"); err == nil {
		t.Error("sealed under a 5-byte key")
	}
}

// TestWipe: a wiped image reads zero wherever it wrote — the patched frames
// of a borrowing image, the whole store of an owned one — and a borrowed
// container keeps its bytes.
func TestWipe(t *testing.T) {
	secret := bytes.Repeat([]byte{0xA7}, 40)
	container := testImage(t, 14).Encode()
	pristine := append([]byte(nil), container...)
	borrowed, err := Decode(container)
	if err != nil {
		t.Fatal(err)
	}
	owned := testImage(t, 14)
	for name, im := range map[string]*Image{"borrowed": borrowed, "owned": owned} {
		loc, _ := im.Cell("sm/secrets")
		if err := im.SetCellBytes(loc, 0, secret); err != nil {
			t.Fatal(err)
		}
		im.Wipe()
		if got, _ := im.CellBytes(loc, 0, len(secret)); !bytes.Equal(got, make([]byte, len(secret))) {
			t.Errorf("%s: wiped cell reads % x", name, got)
		}
		for i := 0; i < im.Frames(); i++ {
			if bytes.Contains(im.frame(i), secret[:8]) {
				t.Fatalf("%s: frame %d still holds the secret", name, i)
			}
		}
	}
	if !bytes.Equal(container, pristine) {
		t.Error("Wipe wrote into a borrowed container")
	}
	if !bytes.Equal(owned.store, make([]byte, len(owned.store))) {
		t.Error("Wipe left bytes in an owned store")
	}
}
