package siphash

import "encoding/binary"

// Sum computes the SipHash-2-4 MAC of msg under key and returns it as an
// 8-byte little-endian slice, matching the reference implementation's
// output ordering.
func Sum(key, msg []byte) ([]byte, error) {
	if len(key) != KeySize {
		return nil, ErrKeySize
	}
	out := make([]byte, Size)
	binary.LittleEndian.PutUint64(out, Sum64(key, msg))
	return out, nil
}
