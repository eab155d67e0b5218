// Package siphash implements SipHash-2-4, the add-rotate-xor pseudorandom
// function used by the Salus SM logic as its hardware MAC engine (§5.1.1 of
// the paper). SipHash produces a short 64-bit MAC and guarantees that an
// attacker knowing a message x and SipHash(x, k) but not the key k cannot
// derive any message y != x with the same MAC.
//
// The implementation follows the reference description by Aumasson and
// Bernstein ("SipHash: a fast short-input PRF", 2012) with c=2 compression
// rounds and d=4 finalization rounds.
package siphash

import (
	"encoding/binary"
	"errors"
)

// KeySize is the size of a SipHash key in bytes.
const KeySize = 16

// Size is the size of a SipHash-2-4 MAC in bytes.
const Size = 8

// ErrKeySize reports a key of the wrong length.
var ErrKeySize = errors.New("siphash: key must be exactly 16 bytes")

const (
	initV0 = 0x736f6d6570736575 // "somepseu"
	initV1 = 0x646f72616e646f6d // "dorandom"
	initV2 = 0x6c7967656e657261 // "lygenera"
	initV3 = 0x7465646279746573 // "tedbytes"
)

func rotl(x uint64, b uint) uint64 { return x<<b | x>>(64-b) }

type state struct {
	v0, v1, v2, v3 uint64
}

func (s *state) round() {
	s.v0 += s.v1
	s.v1 = rotl(s.v1, 13)
	s.v1 ^= s.v0
	s.v0 = rotl(s.v0, 32)
	s.v2 += s.v3
	s.v3 = rotl(s.v3, 16)
	s.v3 ^= s.v2
	s.v0 += s.v3
	s.v3 = rotl(s.v3, 21)
	s.v3 ^= s.v0
	s.v2 += s.v1
	s.v1 = rotl(s.v1, 17)
	s.v1 ^= s.v2
	s.v2 = rotl(s.v2, 32)
}

// Sum64 computes the SipHash-2-4 MAC of msg under the 16-byte key.
// It panics if the key is not exactly 16 bytes; use Sum for a checked
// variant.
func Sum64(key []byte, msg []byte) uint64 {
	if len(key) != KeySize {
		panic(ErrKeySize)
	}
	k0 := binary.LittleEndian.Uint64(key[0:8])
	k1 := binary.LittleEndian.Uint64(key[8:16])

	s := state{
		v0: initV0 ^ k0,
		v1: initV1 ^ k1,
		v2: initV2 ^ k0,
		v3: initV3 ^ k1,
	}

	n := len(msg)
	for len(msg) >= 8 {
		m := binary.LittleEndian.Uint64(msg[:8])
		s.v3 ^= m
		s.round()
		s.round()
		s.v0 ^= m
		msg = msg[8:]
	}

	// Final block: remaining bytes plus the total length in the top byte.
	var last uint64
	for i, b := range msg {
		last |= uint64(b) << (8 * uint(i))
	}
	last |= uint64(n&0xff) << 56

	s.v3 ^= last
	s.round()
	s.round()
	s.v0 ^= last

	s.v2 ^= 0xff
	s.round()
	s.round()
	s.round()
	s.round()

	return s.v0 ^ s.v1 ^ s.v2 ^ s.v3
}

// Verify reports whether mac is the SipHash-2-4 MAC of msg under key.
// The comparison runs over the full 64-bit value regardless of where a
// mismatch occurs.
func Verify(key, msg []byte, mac uint64) bool {
	if len(key) != KeySize {
		return false
	}
	// Constant-time over the 64-bit compare: fold the xor.
	d := Sum64(key, msg) ^ mac
	var acc byte
	for i := 0; i < 8; i++ {
		acc |= byte(d >> (8 * uint(i)))
	}
	return acc == 0
}
