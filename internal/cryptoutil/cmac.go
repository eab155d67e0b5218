// Package cryptoutil provides the cryptographic building blocks shared by
// the Salus components: AES-CMAC (used by the simulated SGX EREPORT
// instruction), AES-GCM sealing (bitstream and job data), the AES-CTR
// reference of the paper's memory-traffic engine, and an HMAC-based
// key-derivation helper.
//
// Everything here is built from the Go standard library; the package exists
// so that protocol code reads at the level of the paper ("MAC over N+1",
// "encrypt with Key_device") rather than cipher plumbing.
package cryptoutil

import (
	"crypto/aes"
	"crypto/subtle"
	"errors"
)

// CMACSize is the size in bytes of an AES-CMAC tag.
const CMACSize = 16

var errCMACKey = errors.New("cryptoutil: AES-CMAC requires a 16, 24, or 32 byte key")

// cmacShift doubles a value in GF(2^128) as defined by RFC 4493 (the
// "generate_subkey" step): left shift by one bit and conditionally XOR the
// constant Rb into the low byte.
func cmacShift(dst, src []byte) {
	var carry byte
	for i := len(src) - 1; i >= 0; i-- {
		b := src[i]
		dst[i] = b<<1 | carry
		carry = b >> 7
	}
	// If the MSB of src was set, xor Rb = 0x87 into the last byte.
	dst[len(dst)-1] ^= 0x87 * carry // carry is 0 or 1
}

// CMAC computes the AES-CMAC (RFC 4493) of msg under key.
func CMAC(key, msg []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, errCMACKey
	}

	// Subkey generation.
	var l, k1, k2 [16]byte
	block.Encrypt(l[:], l[:])
	cmacShift(k1[:], l[:])
	cmacShift(k2[:], k1[:])

	// Split the message into 16-byte blocks; the final block is padded and
	// mixed with K2 if incomplete, or mixed with K1 if complete.
	n := len(msg)
	var last [16]byte
	var full int // number of complete blocks excluding the last block processed specially
	if n == 0 {
		last[0] = 0x80
		for i := range last {
			last[i] ^= k2[i]
		}
	} else if n%16 == 0 {
		full = n/16 - 1
		copy(last[:], msg[full*16:])
		for i := range last {
			last[i] ^= k1[i]
		}
	} else {
		full = n / 16
		rem := msg[full*16:]
		copy(last[:], rem)
		last[len(rem)] = 0x80
		for i := range last {
			last[i] ^= k2[i]
		}
	}

	var x [16]byte
	for i := 0; i < full; i++ {
		for j := 0; j < 16; j++ {
			x[j] ^= msg[i*16+j]
		}
		block.Encrypt(x[:], x[:])
	}
	for j := 0; j < 16; j++ {
		x[j] ^= last[j]
	}
	block.Encrypt(x[:], x[:])

	out := make([]byte, CMACSize)
	copy(out, x[:])
	return out, nil
}

// VerifyCMAC reports whether tag is the AES-CMAC of msg under key, using a
// constant-time comparison.
func VerifyCMAC(key, msg, tag []byte) bool {
	want, err := CMAC(key, msg)
	if err != nil || len(tag) != CMACSize {
		return false
	}
	return subtle.ConstantTimeCompare(want, tag) == 1
}
