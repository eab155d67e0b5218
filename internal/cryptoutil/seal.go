package cryptoutil

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
)

// Key sizes used throughout Salus.
const (
	// DeviceKeySize is the size of the per-device eFUSE bitstream
	// encryption key (AES-GCM-256, matching the Vivado encryption flow the
	// paper aligns with, XAPP1267).
	DeviceKeySize = 32
	// AttestKeySize is the size of the injected attestation key. The SM
	// logic's SipHash engine consumes 16-byte keys.
	AttestKeySize = 16
	// SessionKeySize is the size of the register-channel session key.
	SessionKeySize = 16
	// NonceSize is the GCM nonce size.
	NonceSize = 12
)

var (
	// ErrDecrypt reports that an authenticated decryption failed: the
	// ciphertext was tampered with, truncated, or sealed under another key.
	ErrDecrypt = errors.New("cryptoutil: message authentication failed")
)

// RandomKey returns n cryptographically random bytes, panicking only on a
// broken system RNG (which is unrecoverable).
func RandomKey(n int) []byte {
	k := make([]byte, n)
	fillRandom(k)
	return k
}

func fillRandom(b []byte) {
	if _, err := io.ReadFull(rand.Reader, b); err != nil {
		panic(fmt.Sprintf("cryptoutil: system RNG failure: %v", err))
	}
}

// SealOverhead is how many bytes Seal's output is longer than its
// plaintext: the nonce prefix and the GCM tag.
const SealOverhead = NonceSize + 16

// Seal encrypts and authenticates plaintext with AES-GCM under key,
// binding the optional additional data. The returned ciphertext carries the
// random nonce as its prefix.
func Seal(key, plaintext, additional []byte) ([]byte, error) {
	aead, err := NewAEAD(key)
	if err != nil {
		return nil, err
	}
	return AppendSealWith(make([]byte, 0, len(plaintext)+SealOverhead), aead, plaintext, additional), nil
}

// Open authenticates and decrypts a Seal-produced ciphertext.
func Open(key, ciphertext, additional []byte) ([]byte, error) {
	aead, err := NewAEAD(key)
	if err != nil {
		return nil, err
	}
	return AppendOpenWith(nil, aead, ciphertext, additional)
}

// NewAEAD expands key into the AES-GCM instance the *With functions below
// seal and open under. A holder of a long-lived key (a session's data key)
// expands it once and keeps the instance for as long as it keeps the key;
// Seal and Open expand a fresh one per call. The instance is safe for
// concurrent use.
func NewAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: %w", err)
	}
	return cipher.NewGCM(block)
}

// AppendSealWith appends Seal's output under an expanded key to dst and
// returns the extended slice, so a caller that frames a large ciphertext
// (the bitstream container's magic) builds the message in one buffer. The
// nonce is drawn straight into dst, so a dst with room for the whole
// message costs no allocation. plaintext may lie exactly where the
// ciphertext goes — in dst's capacity, NonceSize bytes past its length —
// to seal in place; any other overlap with dst panics.
func AppendSealWith(dst []byte, aead cipher.AEAD, plaintext, additional []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, NonceSize)...)
	nonce := dst[start:]
	fillRandom(nonce)
	return aead.Seal(dst, nonce, plaintext, additional)
}

// SealInPlaceWith seals a message that is already in its final buffer:
// buf is len(plaintext)+SealOverhead bytes with the plaintext at
// buf[NonceSize:len(buf)-16]. It writes a fresh nonce in front and the tag
// behind, encrypting in between, so buf becomes exactly Seal's output
// without a second payload-sized buffer. aead must be one with Seal's
// nonce and tag sizes, or the buffer would not hold Seal's format.
func SealInPlaceWith(aead cipher.AEAD, buf, additional []byte) error {
	if aead.NonceSize() != NonceSize || aead.Overhead() != SealOverhead-NonceSize {
		return fmt.Errorf("cryptoutil: in-place seal under an AEAD of %d-byte nonces and %d-byte tags", aead.NonceSize(), aead.Overhead())
	}
	if len(buf) < SealOverhead {
		return fmt.Errorf("cryptoutil: in-place seal buffer of %d bytes", len(buf))
	}
	nonce := buf[:NonceSize]
	fillRandom(nonce)
	pt := buf[NonceSize : len(buf)-aead.Overhead()]
	aead.Seal(pt[:0], nonce, pt, additional)
	return nil
}

// AppendOpenWith is Open under an expanded key, appending the plaintext to
// dst, so a caller with room in dst opens without allocating.
func AppendOpenWith(dst []byte, aead cipher.AEAD, ciphertext, additional []byte) ([]byte, error) {
	if len(ciphertext) < NonceSize+aead.Overhead() {
		return nil, ErrDecrypt
	}
	pt, err := aead.Open(dst, ciphertext[:NonceSize], ciphertext[NonceSize:], additional)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// OpenInPlaceWith is AppendOpenWith decrypting over the ciphertext's own
// bytes: the plaintext it returns aliases ciphertext[NonceSize:]. For a
// caller that owns the sealed buffer and needs it no longer. On failure the
// buffer's contents are unspecified.
func OpenInPlaceWith(aead cipher.AEAD, ciphertext, additional []byte) ([]byte, error) {
	if len(ciphertext) < NonceSize {
		return nil, ErrDecrypt
	}
	return AppendOpenWith(ciphertext[NonceSize:NonceSize], aead, ciphertext, additional)
}

// XORKeyStreamCTR encrypts (or decrypts — CTR is symmetric) src in one call
// under key and a 16-byte IV, expanding key for this call only. It is the
// reference model of the AES-CTR streaming engine the paper's benchmark
// accelerators attach at their memory interfaces (§6.4), which the
// performance model still charges. The job path no longer runs it: job
// data crosses the shell under AES-GCM (accel.DataPlane). The benchmark's
// core.ctr_us times it as the paper's engine.
func XORKeyStreamCTR(key, iv, src []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: %w", err)
	}
	if len(iv) != block.BlockSize() {
		return nil, fmt.Errorf("cryptoutil: CTR IV must be %d bytes, got %d", block.BlockSize(), len(iv))
	}
	dst := make([]byte, len(src))
	cipher.NewCTR(block, iv).XORKeyStream(dst, src)
	return dst, nil
}

// DeriveKey derives a subkey of length n from a shared secret and a
// distinguishing label using HMAC-SHA256 in an HKDF-expand style chain.
// Both enclaves use it to split an ECDH shared secret into directional
// channel keys.
func DeriveKey(secret []byte, label string, n int) []byte {
	out := make([]byte, 0, n)
	var prev []byte
	for counter := byte(1); len(out) < n; counter++ {
		mac := hmac.New(sha256.New, secret)
		mac.Write(prev)
		mac.Write([]byte(label))
		mac.Write([]byte{counter})
		prev = mac.Sum(nil)
		out = append(out, prev...)
	}
	return out[:n]
}

// Digest returns the SHA-256 digest of data; it is the bitstream digest H
// carried through the attestation chain.
func Digest(data []byte) [32]byte {
	return sha256.Sum256(data)
}

// ConstantTimeEqual compares two byte slices in constant time.
func ConstantTimeEqual(a, b []byte) bool {
	return len(a) == len(b) && subtle.ConstantTimeCompare(a, b) == 1
}
