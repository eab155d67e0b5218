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
	return AppendSeal(make([]byte, 0, len(plaintext)+SealOverhead), key, plaintext, additional)
}

// AppendSeal appends Seal's output to dst and returns the extended slice, so
// a caller that frames a large ciphertext (the bitstream container's magic)
// builds the message in one buffer. dst must not overlap plaintext.
func AppendSeal(dst, key, plaintext, additional []byte) ([]byte, error) {
	aead, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	nonce := RandomKey(NonceSize)
	return aead.Seal(append(dst, nonce...), nonce, plaintext, additional), nil
}

// SealInPlace seals a message that is already in its final buffer: buf is
// len(plaintext)+SealOverhead bytes with the plaintext at
// buf[NonceSize:len(buf)-16]. It writes a fresh nonce in front and the tag
// behind, encrypting in between, so buf becomes exactly Seal's output
// without a second payload-sized buffer.
func SealInPlace(key, buf, additional []byte) error {
	if len(buf) < SealOverhead {
		return fmt.Errorf("cryptoutil: in-place seal buffer of %d bytes", len(buf))
	}
	aead, err := newGCM(key)
	if err != nil {
		return err
	}
	nonce := buf[:NonceSize]
	fillRandom(nonce)
	pt := buf[NonceSize : len(buf)-aead.Overhead()]
	aead.Seal(pt[:0], nonce, pt, additional)
	return nil
}

// Open authenticates and decrypts a Seal-produced ciphertext.
func Open(key, ciphertext, additional []byte) ([]byte, error) {
	return open(key, nil, ciphertext, additional)
}

// OpenInPlace is Open decrypting over the ciphertext's own bytes: the
// plaintext it returns aliases ciphertext[NonceSize:]. For a caller that
// owns the sealed buffer and needs it no longer. On failure the buffer's
// contents are unspecified.
func OpenInPlace(key, ciphertext, additional []byte) ([]byte, error) {
	if len(ciphertext) < NonceSize {
		return nil, ErrDecrypt
	}
	return open(key, ciphertext[NonceSize:NonceSize], ciphertext, additional)
}

func open(key, dst, ciphertext, additional []byte) ([]byte, error) {
	aead, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	if len(ciphertext) < NonceSize+aead.Overhead() {
		return nil, ErrDecrypt
	}
	pt, err := aead.Open(dst, ciphertext[:NonceSize], ciphertext[NonceSize:], additional)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

func newGCM(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: %w", err)
	}
	return cipher.NewGCM(block)
}

// CTRStream returns an AES-CTR keystream cipher for the given key and
// 16-byte IV. It is the software model of the streaming
// encryption/decryption engine the benchmark accelerators attach at their
// memory interfaces (§6.4).
func CTRStream(key, iv []byte) (cipher.Stream, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: %w", err)
	}
	if len(iv) != block.BlockSize() {
		return nil, fmt.Errorf("cryptoutil: CTR IV must be %d bytes, got %d", block.BlockSize(), len(iv))
	}
	return cipher.NewCTR(block, iv), nil
}

// XORKeyStreamCTR encrypts (or decrypts — CTR is symmetric) src in one call.
func XORKeyStreamCTR(key, iv, src []byte) ([]byte, error) {
	s, err := CTRStream(key, iv)
	if err != nil {
		return nil, err
	}
	dst := make([]byte, len(src))
	s.XORKeyStream(dst, src)
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

// HMAC256 computes HMAC-SHA256 of msg under key.
func HMAC256(key, msg []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(msg)
	return mac.Sum(nil)
}

// VerifyHMAC256 reports whether tag is the HMAC-SHA256 of msg under key.
func VerifyHMAC256(key, msg, tag []byte) bool {
	return subtle.ConstantTimeCompare(HMAC256(key, msg), tag) == 1
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
