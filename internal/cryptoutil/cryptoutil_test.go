package cryptoutil

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// RFC 4493 test vectors for AES-128-CMAC.
func TestCMACRFC4493(t *testing.T) {
	key, _ := hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")
	msg, _ := hex.DecodeString(
		"6bc1bee22e409f96e93d7e117393172a" +
			"ae2d8a571e03ac9c9eb76fac45af8e51" +
			"30c81c46a35ce411e5fbc1191a0a52ef" +
			"f69f2445df4f9b17ad2b417be66c3710")

	cases := []struct {
		n    int
		want string
	}{
		{0, "bb1d6929e95937287fa37d129b756746"},
		{16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{40, "dfa66747de9ae63030ca32611497c827"},
		{64, "51f0bebf7e3b9d92fc49741779363cfe"},
	}
	for _, tc := range cases {
		got, err := CMAC(key, msg[:tc.n])
		if err != nil {
			t.Fatalf("CMAC(%d bytes): %v", tc.n, err)
		}
		if hex.EncodeToString(got) != tc.want {
			t.Errorf("CMAC(%d bytes) = %x, want %s", tc.n, got, tc.want)
		}
	}
}

func TestCMACKeySizes(t *testing.T) {
	msg := []byte("report body")
	for _, n := range []int{16, 24, 32} {
		tag, err := CMAC(make([]byte, n), msg)
		if err != nil {
			t.Errorf("CMAC with %d-byte key: %v", n, err)
		}
		if !VerifyCMAC(make([]byte, n), msg, tag) {
			t.Errorf("VerifyCMAC with %d-byte key rejected valid tag", n)
		}
	}
	if _, err := CMAC(make([]byte, 17), msg); err == nil {
		t.Error("CMAC accepted a 17-byte key")
	}
}

func TestVerifyCMACRejectsTampering(t *testing.T) {
	key := RandomKey(16)
	msg := []byte("EREPORT body")
	tag, err := CMAC(key, msg)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), tag...)
	bad[0] ^= 1
	if VerifyCMAC(key, msg, bad) {
		t.Error("accepted corrupted tag")
	}
	if VerifyCMAC(key, []byte("EREPORT bodY"), tag) {
		t.Error("accepted corrupted message")
	}
	if VerifyCMAC(key, msg, tag[:15]) {
		t.Error("accepted truncated tag")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	key := RandomKey(DeviceKeySize)
	pt := []byte("partial bitstream body")
	ad := []byte("device-dna-0001")
	ct, err := Seal(key, pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(key, ct, ad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Errorf("round trip = %q, want %q", got, pt)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	key := RandomKey(DeviceKeySize)
	ct, err := Seal(key, []byte("secret"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ct {
		bad := append([]byte(nil), ct...)
		bad[i] ^= 0x40
		if _, err := Open(key, bad, nil); err == nil {
			t.Fatalf("Open accepted ciphertext with byte %d flipped", i)
		}
	}
	if _, err := Open(key, ct, []byte("wrong-ad")); err == nil {
		t.Error("Open accepted wrong additional data")
	}
	if _, err := Open(RandomKey(DeviceKeySize), ct, nil); err == nil {
		t.Error("Open accepted wrong key")
	}
	if _, err := Open(key, ct[:NonceSize], nil); err == nil {
		t.Error("Open accepted truncated ciphertext")
	}
}

func TestSealNonceFreshness(t *testing.T) {
	key := RandomKey(DeviceKeySize)
	a, _ := Seal(key, []byte("x"), nil)
	b, _ := Seal(key, []byte("x"), nil)
	if bytes.Equal(a, b) {
		t.Error("two Seals of the same plaintext produced identical ciphertexts")
	}
}

func TestCTRSymmetry(t *testing.T) {
	key := RandomKey(16)
	iv := RandomKey(16)
	pt := []byte("feature map row 0: 0.13 0.98 ...")
	ct, err := XORKeyStreamCTR(key, iv, pt)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct, pt) {
		t.Error("CTR output equals input")
	}
	back, err := XORKeyStreamCTR(key, iv, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pt) {
		t.Error("CTR decrypt did not invert encrypt")
	}
}

func TestCTRBadIV(t *testing.T) {
	if _, err := XORKeyStreamCTR(RandomKey(16), RandomKey(8), []byte("x")); err == nil {
		t.Error("accepted 8-byte IV")
	}
}

func TestDeriveKeyProperties(t *testing.T) {
	secret := RandomKey(32)
	a := DeriveKey(secret, "sm->cl", 16)
	b := DeriveKey(secret, "cl->sm", 16)
	if bytes.Equal(a, b) {
		t.Error("different labels produced the same key")
	}
	if !bytes.Equal(a, DeriveKey(secret, "sm->cl", 16)) {
		t.Error("derivation is not deterministic")
	}
	long := DeriveKey(secret, "sm->cl", 80)
	if len(long) != 80 {
		t.Errorf("len = %d, want 80", len(long))
	}
	if !bytes.Equal(long[:16], a) {
		t.Error("prefix of longer derivation differs")
	}
}

func TestPropertySealOpen(t *testing.T) {
	key := RandomKey(DeviceKeySize)
	f := func(pt, ad []byte) bool {
		ct, err := Seal(key, pt, ad)
		if err != nil {
			return false
		}
		got, err := Open(key, ct, ad)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCMACDistinctMessages(t *testing.T) {
	key := RandomKey(16)
	f := func(msg []byte) bool {
		tag, err := CMAC(key, msg)
		if err != nil {
			return false
		}
		flipped := append(append([]byte(nil), msg...), 0x01)
		other, err := CMAC(key, flipped)
		return err == nil && !bytes.Equal(tag, other)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConstantTimeEqual(t *testing.T) {
	if !ConstantTimeEqual([]byte("abc"), []byte("abc")) {
		t.Error("equal slices reported unequal")
	}
	if ConstantTimeEqual([]byte("abc"), []byte("abd")) {
		t.Error("unequal slices reported equal")
	}
	if ConstantTimeEqual([]byte("abc"), []byte("abcd")) {
		t.Error("different lengths reported equal")
	}
}

func BenchmarkCMAC_64B(b *testing.B) {
	key := RandomKey(16)
	msg := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		if _, err := CMAC(key, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSealGCM_1MiB(b *testing.B) {
	key := RandomKey(DeviceKeySize)
	pt := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		if _, err := Seal(key, pt, nil); err != nil {
			b.Fatal(err)
		}
	}
}
