// Package channel defines the wire messages exchanged between the host and
// the custom logic over the (untrusted, shell-mediated) PCIe link, and the
// cryptographic framing that protects them:
//
//   - the CL attestation protocol of Figure 4a — a SipHash-MAC
//     challenge/response over the nonce and Device DNA, keyed by the
//     dynamically injected Key_attest;
//
//   - the secure register channel of §4.5 — register transactions encrypted
//     with AES-CTR under Key_session and authenticated with SipHash, with a
//     strictly increasing session counter Ctr_session for replay protection;
//
//   - the direct, unprotected register/memory channel that bypasses the SM
//     components (the developer encrypts bulk data at the application layer
//     and moves it over this path).
//
// Every message crosses a bus the shell fully controls, so decoding is
// defensive throughout: any malformed, truncated, or forged frame yields an
// error, never a panic.
package channel

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"salus/internal/siphash"
)

// Message type tags.
const (
	MsgAttestReq          byte = 0x01
	MsgAttestResp         byte = 0x02
	MsgSecureReg          byte = 0x03
	MsgSecureRegResp      byte = 0x04
	MsgDirectReg          byte = 0x05
	MsgDirectResp         byte = 0x06
	MsgMemWrite           byte = 0x07
	MsgMemRead            byte = 0x08
	MsgMemData            byte = 0x09
	MsgRekey              byte = 0x0A
	MsgRekeyResp          byte = 0x0B
	MsgSecureRegBatch     byte = 0x0C
	MsgSecureRegBatchResp byte = 0x0D
	MsgError              byte = 0x7F
)

// Errors returned by the decoders and the secure channel.
var (
	ErrMalformed = errors.New("channel: malformed message")
	ErrMAC       = errors.New("channel: MAC verification failed")
	ErrReplay    = errors.New("channel: stale session counter (replay)")
)

// ---------------------------------------------------------------------------
// CL attestation (Figure 4a)

// AttestRequest is the SM enclave's challenge: a fresh nonce and the Device
// DNA the CSP claims the customer rented, authenticated under Key_attest.
type AttestRequest struct {
	Nonce uint64
	DNA   string
	MAC   uint64
}

// AttestResponse is the SM logic's reply: the incremented nonce and the
// DNA the logic reads from its own DNA_PORTE2, authenticated under the
// Key_attest it was loaded with.
type AttestResponse struct {
	Value uint64 // Nonce + 1
	DNA   string
	MAC   uint64
}

// Domain-separation prefixes for the two MAC directions.
var (
	attestReqTag  = []byte("salus/attest/req\x00")
	attestRespTag = []byte("salus/attest/rsp\x00")
)

func attestMAC(tag []byte, key []byte, v uint64, dna string) uint64 {
	msg := make([]byte, 0, len(tag)+8+len(dna))
	msg = append(msg, tag...)
	msg = binary.BigEndian.AppendUint64(msg, v)
	msg = append(msg, dna...)
	return siphash.Sum64(key, msg)
}

// AttestMACReq computes MAC_req over (N, DNA) under Key_attest.
func AttestMACReq(key []byte, nonce uint64, dna string) uint64 {
	return attestMAC(attestReqTag, key, nonce, dna)
}

// AttestMACResp computes MAC_rsp over (N+1, DNA') under Key_attest.
func AttestMACResp(key []byte, value uint64, dna string) uint64 {
	return attestMAC(attestRespTag, key, value, dna)
}

// Encode serialises the request with its type tag. A DNA longer than the
// uint16 length prefix can carry is refused with ErrMalformed — encoding it
// anyway would emit a frame whose own decoder rejects it (the length field
// would silently truncate while the bytes all ship).
func (r AttestRequest) Encode() ([]byte, error) {
	if len(r.DNA) > maxStringLen {
		return nil, fmt.Errorf("%w: DNA of %d bytes exceeds %d", ErrMalformed, len(r.DNA), maxStringLen)
	}
	out := []byte{MsgAttestReq}
	out = binary.BigEndian.AppendUint64(out, r.Nonce)
	out = appendString(out, r.DNA)
	return binary.BigEndian.AppendUint64(out, r.MAC), nil
}

// DecodeAttestRequest parses an attestation request frame.
func DecodeAttestRequest(b []byte) (AttestRequest, error) {
	var r AttestRequest
	body, ok := expectTag(b, MsgAttestReq)
	if !ok || len(body) < 8 {
		return r, ErrMalformed
	}
	r.Nonce = binary.BigEndian.Uint64(body)
	s, rest, ok := takeString(body[8:])
	if !ok || len(rest) != 8 {
		return r, ErrMalformed
	}
	r.DNA = s
	r.MAC = binary.BigEndian.Uint64(rest)
	return r, nil
}

// Encode serialises the response with its type tag; a DNA longer than the
// uint16 length prefix can carry is refused with ErrMalformed (see
// AttestRequest.Encode).
func (r AttestResponse) Encode() ([]byte, error) {
	if len(r.DNA) > maxStringLen {
		return nil, fmt.Errorf("%w: DNA of %d bytes exceeds %d", ErrMalformed, len(r.DNA), maxStringLen)
	}
	out := []byte{MsgAttestResp}
	out = binary.BigEndian.AppendUint64(out, r.Value)
	out = appendString(out, r.DNA)
	return binary.BigEndian.AppendUint64(out, r.MAC), nil
}

// DecodeAttestResponse parses an attestation response frame.
func DecodeAttestResponse(b []byte) (AttestResponse, error) {
	var r AttestResponse
	body, ok := expectTag(b, MsgAttestResp)
	if !ok || len(body) < 8 {
		return r, ErrMalformed
	}
	r.Value = binary.BigEndian.Uint64(body)
	s, rest, ok := takeString(body[8:])
	if !ok || len(rest) != 8 {
		return r, ErrMalformed
	}
	r.DNA = s
	r.MAC = binary.BigEndian.Uint64(rest)
	return r, nil
}

// ---------------------------------------------------------------------------
// Register transactions

// RegTxn is one register access on the accelerator's AXI4-Lite-style
// control interface.
type RegTxn struct {
	Write bool
	Addr  uint32
	Data  uint64 // write data; ignored for reads
}

// RegResult is the accelerator's reply.
type RegResult struct {
	Data uint64 // read data; echoes write data on writes
	OK   bool
}

// regTxnSize and regResultSize are the fixed wire sizes of one encoded
// transaction / result inside single and batched frames.
const (
	regTxnSize    = 13
	regResultSize = 9
)

func appendRegTxn(out []byte, t RegTxn) []byte {
	w := byte(0)
	if t.Write {
		w = 1
	}
	out = append(out, w)
	out = binary.BigEndian.AppendUint32(out, t.Addr)
	return binary.BigEndian.AppendUint64(out, t.Data)
}

func decodeRegTxn(b []byte) (RegTxn, bool) {
	if len(b) != regTxnSize || b[0] > 1 {
		return RegTxn{}, false
	}
	return RegTxn{
		Write: b[0] == 1,
		Addr:  binary.BigEndian.Uint32(b[1:5]),
		Data:  binary.BigEndian.Uint64(b[5:13]),
	}, true
}

func appendRegResult(out []byte, r RegResult) []byte {
	ok := byte(0)
	if r.OK {
		ok = 1
	}
	out = append(out, ok)
	return binary.BigEndian.AppendUint64(out, r.Data)
}

func decodeRegResult(b []byte) (RegResult, bool) {
	if len(b) != regResultSize || b[0] > 1 {
		return RegResult{}, false
	}
	return RegResult{OK: b[0] == 1, Data: binary.BigEndian.Uint64(b[1:9])}, true
}

// ---------------------------------------------------------------------------
// Secure register channel (§4.5)
//
// A secure frame is tag ‖ ctr ‖ AES-CTR(payload) ‖ SipHash(tag ‖ ctr ‖ ct),
// all under Key_session. The CTR counter block is ctr ‖ dir ‖ zeros, so
// the two directions of one counter value never share a keystream. Single
// register frames, batched register programs and rekey frames are all
// framed this way, by one Sealer per key.

// Direction bytes bound into the IV and MAC so a reflected frame can never
// be confused for a response (and vice versa).
const (
	dirRequest  byte = 0x00
	dirResponse byte = 0x01
)

// A batched frame carries a whole register *program* — the per-job setup
// writes, start commands, and status reads of an entire job batch — as one
// transaction vector sealed under a single session-counter tick. One MAC
// covers the vector, so inserting, dropping, or reordering transactions
// inside a batch is as detectable as forging a frame: the SipHash tag
// breaks. Replay protection is unchanged — the frame's counter must equal
// the receiver's expected counter, and the whole batch advances it by
// exactly one.

// MaxBatchTxns bounds one batched frame. At 13 bytes per transaction the
// largest request stays well under the shell's transaction limits, and a
// hostile peer cannot make the receiver stage unbounded work behind one
// MAC check.
const MaxBatchTxns = 4096

// batch payload layout: uint16 count, then count fixed-size records.
const batchHdrSize = 2

// rekeyPayloadSize is a rekey request's payload: the new 16-byte key and
// the new counter.
const rekeyPayloadSize = 16 + 8

// Sealer seals and opens secure-channel frames — single register
// transactions, batched register programs and session rotations — for one
// session key with zero steady-state allocations: the AES block cipher is
// expanded once per key, at the key's first seal or open, counter and
// keystream blocks live in the struct, and frame buffers are grown once and
// reused. Each end of the channel holds one Sealer and Rekeys it when the
// Key_session epoch rotates. A Sealer is NOT safe for concurrent use — callers
// (smapp.SMApp, smlogic.Logic) already serialise the secure channel, which
// is single-lane by construction (one strictly increasing counter).
//
// Aliasing rules: the []byte returned by Seal* and the slices returned by
// Open* (when dst is nil) are valid only until the next call on the same
// Sealer — copy them to retain. Open* decrypts into internal scratch, never
// into the caller's frame.
type Sealer struct {
	key   []byte
	block cipher.Block // key's expanded schedule; nil until xorCTR first needs it

	// Scratch state. ctrBlk/ks live here rather than on the stack so the
	// interface call into cipher.Block cannot force a per-call escape.
	ctrBlk  [16]byte
	ks      [16]byte
	sealBuf []byte
	openBuf []byte
}

// NewSealer returns a reusable sealer for key (16 bytes, Key_session).
func NewSealer(key []byte) (*Sealer, error) {
	s := new(Sealer)
	if err := s.Rekey(key); err != nil {
		return nil, err
	}
	return s, nil
}

// Rekey switches the Sealer to a new 16-byte key: it checks the key's
// length, copies key over its own key bytes, drops the old block and zeroes
// both frame buffers, keeping their capacity, so nothing of the old epoch —
// its key, its schedule or a frame opened under it — stays behind and the
// next epoch grows no buffer. The new block is expanded at the epoch's
// first seal or open, so an epoch that is never used (a boot's post-attest
// rotation, say) costs no key schedule. key may alias the open buffer
// (OpenRekeyRequest's newKey).
func (s *Sealer) Rekey(key []byte) error {
	switch len(key) {
	case 16, 24, 32:
	default:
		return fmt.Errorf("channel: sealer: %w", aes.KeySizeError(len(key)))
	}
	s.key = append(s.key[:0], key...)
	s.block = nil
	clear(s.sealBuf[:cap(s.sealBuf)])
	clear(s.openBuf[:cap(s.openBuf)])
	return nil
}

// xorCTR applies the session keystream at (ctr, dir) to buf in place; the
// stream is cipher.NewCTR's over the counter block ctr ‖ dir ‖ zeros. Each
// counter value seals at most one frame per direction, so streams never
// repeat.
func (s *Sealer) xorCTR(ctr uint64, dir byte, buf []byte) {
	if s.block == nil {
		s.block, _ = aes.NewCipher(s.key) // Rekey checked the length
	}
	for i := range s.ctrBlk {
		s.ctrBlk[i] = 0
	}
	binary.BigEndian.PutUint64(s.ctrBlk[:8], ctr)
	s.ctrBlk[8] = dir
	for off := 0; off < len(buf); off += 16 {
		s.block.Encrypt(s.ks[:], s.ctrBlk[:])
		n := len(buf) - off
		if n > 16 {
			n = 16
		}
		for i := 0; i < n; i++ {
			buf[off+i] ^= s.ks[i]
		}
		for i := 15; i >= 0; i-- {
			s.ctrBlk[i]++
			if s.ctrBlk[i] != 0 {
				break
			}
		}
	}
}

// secureHdrSize is the tag and counter in front of a secure payload.
const secureHdrSize = 1 + 8

// begin starts a frame in the seal buffer: tag ‖ ctr, with room for a
// payloadLen-byte payload and the MAC. The caller appends the plaintext
// payload and hands the buffer to finish.
func (s *Sealer) begin(tag byte, ctr uint64, payloadLen int) []byte {
	if n := secureHdrSize + payloadLen + 8; cap(s.sealBuf) < n {
		s.sealBuf = make([]byte, 0, n)
	}
	buf := append(s.sealBuf[:0], tag)
	return binary.BigEndian.AppendUint64(buf, ctr)
}

// finish encrypts the payload begin's caller appended and appends the MAC.
func (s *Sealer) finish(dir byte, ctr uint64, buf []byte) []byte {
	s.xorCTR(ctr, dir, buf[secureHdrSize:])
	mac := siphash.Sum64(s.key, buf)
	s.sealBuf = binary.BigEndian.AppendUint64(buf, mac)
	return s.sealBuf
}

// open verifies tag, MAC, and counter, then decrypts the payload into the
// open buffer (the caller's frame is left untouched).
func (s *Sealer) open(tag, dir byte, wantCtr uint64, frame []byte) ([]byte, error) {
	if len(frame) < secureHdrSize+8 || frame[0] != tag {
		return nil, ErrMalformed
	}
	body := frame[:len(frame)-8]
	mac := binary.BigEndian.Uint64(frame[len(frame)-8:])
	if !siphash.Verify(s.key, body, mac) {
		return nil, ErrMAC
	}
	ctr := binary.BigEndian.Uint64(body[1:secureHdrSize])
	if ctr != wantCtr {
		return nil, fmt.Errorf("%w: counter %d, expected %d", ErrReplay, ctr, wantCtr)
	}
	ct := body[secureHdrSize:]
	if cap(s.openBuf) < len(ct) {
		s.openBuf = make([]byte, 0, len(ct))
	}
	pt := s.openBuf[:len(ct)]
	copy(pt, ct)
	s.xorCTR(ctr, dir, pt)
	s.openBuf = pt
	return pt, nil
}

// SealRegRequest protects one register transaction for the host→CL
// direction at counter ctr.
func (s *Sealer) SealRegRequest(ctr uint64, txn RegTxn) ([]byte, error) {
	buf := s.begin(MsgSecureReg, ctr, regTxnSize)
	return s.finish(dirRequest, ctr, appendRegTxn(buf, txn)), nil
}

// OpenRegRequest verifies and decrypts a secure register request; wantCtr
// is the receiver's expected next counter (strictly increasing — anything
// else is a replay or reorder and is rejected).
func (s *Sealer) OpenRegRequest(wantCtr uint64, frame []byte) (RegTxn, error) {
	pt, err := s.open(MsgSecureReg, dirRequest, wantCtr, frame)
	if err != nil {
		return RegTxn{}, err
	}
	txn, ok := decodeRegTxn(pt)
	if !ok {
		return RegTxn{}, ErrMalformed
	}
	return txn, nil
}

// SealRegResponse protects a register result for the CL→host direction at
// the same counter as its request.
func (s *Sealer) SealRegResponse(ctr uint64, res RegResult) ([]byte, error) {
	buf := s.begin(MsgSecureRegResp, ctr, regResultSize)
	return s.finish(dirResponse, ctr, appendRegResult(buf, res)), nil
}

// OpenRegResponse verifies and decrypts a secure register response.
func (s *Sealer) OpenRegResponse(wantCtr uint64, frame []byte) (RegResult, error) {
	pt, err := s.open(MsgSecureRegResp, dirResponse, wantCtr, frame)
	if err != nil {
		return RegResult{}, err
	}
	res, ok := decodeRegResult(pt)
	if !ok {
		return RegResult{}, ErrMalformed
	}
	return res, nil
}

// SealRegBatchRequest seals txns (1..MaxBatchTxns transactions) for the
// host→CL direction under one counter tick.
func (s *Sealer) SealRegBatchRequest(ctr uint64, txns []RegTxn) ([]byte, error) {
	if len(txns) == 0 || len(txns) > MaxBatchTxns {
		return nil, fmt.Errorf("%w: batch of %d transactions", ErrMalformed, len(txns))
	}
	buf := s.begin(MsgSecureRegBatch, ctr, batchHdrSize+regTxnSize*len(txns))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(txns)))
	for _, t := range txns {
		buf = appendRegTxn(buf, t)
	}
	return s.finish(dirRequest, ctr, buf), nil
}

// OpenRegBatchRequest verifies and decrypts a batched request. Results are
// appended to dst (which may be nil); the returned slice follows the
// Sealer aliasing rules when dst capacity is insufficient.
func (s *Sealer) OpenRegBatchRequest(wantCtr uint64, frame []byte, dst []RegTxn) ([]RegTxn, error) {
	pt, err := s.open(MsgSecureRegBatch, dirRequest, wantCtr, frame)
	if err != nil {
		return nil, err
	}
	if len(pt) < batchHdrSize {
		return nil, ErrMalformed
	}
	n := int(binary.BigEndian.Uint16(pt))
	if n == 0 || n > MaxBatchTxns || len(pt)-batchHdrSize != n*regTxnSize {
		return nil, ErrMalformed
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		rec := pt[batchHdrSize+i*regTxnSize:]
		txn, ok := decodeRegTxn(rec[:regTxnSize])
		if !ok {
			return nil, ErrMalformed
		}
		dst = append(dst, txn)
	}
	return dst, nil
}

// SealRegBatchResponse seals the result vector for the CL→host direction
// at the request's counter.
func (s *Sealer) SealRegBatchResponse(ctr uint64, res []RegResult) ([]byte, error) {
	if len(res) == 0 || len(res) > MaxBatchTxns {
		return nil, fmt.Errorf("%w: batch of %d results", ErrMalformed, len(res))
	}
	buf := s.begin(MsgSecureRegBatchResp, ctr, batchHdrSize+regResultSize*len(res))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(res)))
	for _, r := range res {
		buf = appendRegResult(buf, r)
	}
	return s.finish(dirResponse, ctr, buf), nil
}

// OpenRegBatchResponse verifies and decrypts a batched response into dst.
func (s *Sealer) OpenRegBatchResponse(wantCtr uint64, frame []byte, dst []RegResult) ([]RegResult, error) {
	pt, err := s.open(MsgSecureRegBatchResp, dirResponse, wantCtr, frame)
	if err != nil {
		return nil, err
	}
	if len(pt) < batchHdrSize {
		return nil, ErrMalformed
	}
	n := int(binary.BigEndian.Uint16(pt))
	if n == 0 || n > MaxBatchTxns || len(pt)-batchHdrSize != n*regResultSize {
		return nil, ErrMalformed
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		rec := pt[batchHdrSize+i*regResultSize:]
		r, ok := decodeRegResult(rec[:regResultSize])
		if !ok {
			return nil, ErrMalformed
		}
		dst = append(dst, r)
	}
	return dst, nil
}

// SealRekeyRequest protects a session-key rotation: the new key and new
// counter ride the *current* session key at the current counter, so only
// the party holding Key_session can rotate it.
func (s *Sealer) SealRekeyRequest(ctr uint64, newKey []byte, newCtr uint64) ([]byte, error) {
	if len(newKey) != 16 {
		return nil, fmt.Errorf("%w: rekey needs a 16-byte key", ErrMalformed)
	}
	buf := append(s.begin(MsgRekey, ctr, rekeyPayloadSize), newKey...)
	buf = binary.BigEndian.AppendUint64(buf, newCtr)
	return s.finish(dirRequest, ctr, buf), nil
}

// OpenRekeyRequest verifies and decrypts a rekey request. newKey follows
// the Sealer aliasing rules.
func (s *Sealer) OpenRekeyRequest(wantCtr uint64, frame []byte) (newKey []byte, newCtr uint64, err error) {
	pt, err := s.open(MsgRekey, dirRequest, wantCtr, frame)
	if err != nil {
		return nil, 0, err
	}
	if len(pt) != rekeyPayloadSize {
		return nil, 0, ErrMalformed
	}
	return pt[:16], binary.BigEndian.Uint64(pt[16:]), nil
}

// SealRekeyResponse acknowledges a rotation under the *old* key at the
// request's counter, so the initiator can distinguish "installed" from a
// dropped request before switching.
func (s *Sealer) SealRekeyResponse(ctr uint64) ([]byte, error) {
	buf := append(s.begin(MsgRekeyResp, ctr, 1), 1)
	return s.finish(dirResponse, ctr, buf), nil
}

// OpenRekeyResponse verifies a rotation acknowledgement.
func (s *Sealer) OpenRekeyResponse(wantCtr uint64, frame []byte) error {
	pt, err := s.open(MsgRekeyResp, dirResponse, wantCtr, frame)
	if err != nil {
		return err
	}
	if len(pt) != 1 || pt[0] != 1 {
		return ErrMalformed
	}
	return nil
}

// One-shot forms. Each expands key into a throwaway Sealer, so its output
// is the caller's to keep; anything that frames more than once under a
// key holds a Sealer instead.

// oneShot runs f on a fresh Sealer for key.
func oneShot[T any](key []byte, f func(*Sealer) (T, error)) (T, error) {
	s, err := NewSealer(key)
	if err != nil {
		var zero T
		return zero, err
	}
	return f(s)
}

// SealRegRequest is the one-shot form of Sealer.SealRegRequest.
func SealRegRequest(key []byte, ctr uint64, txn RegTxn) ([]byte, error) {
	return oneShot(key, func(s *Sealer) ([]byte, error) { return s.SealRegRequest(ctr, txn) })
}

// OpenRegRequest is the one-shot form of Sealer.OpenRegRequest.
func OpenRegRequest(key []byte, wantCtr uint64, frame []byte) (RegTxn, error) {
	return oneShot(key, func(s *Sealer) (RegTxn, error) { return s.OpenRegRequest(wantCtr, frame) })
}

// OpenRegResponse is the one-shot form of Sealer.OpenRegResponse.
func OpenRegResponse(key []byte, wantCtr uint64, frame []byte) (RegResult, error) {
	return oneShot(key, func(s *Sealer) (RegResult, error) { return s.OpenRegResponse(wantCtr, frame) })
}

// SealRegBatchRequest is the one-shot form of Sealer.SealRegBatchRequest.
func SealRegBatchRequest(key []byte, ctr uint64, txns []RegTxn) ([]byte, error) {
	return oneShot(key, func(s *Sealer) ([]byte, error) { return s.SealRegBatchRequest(ctr, txns) })
}

// OpenRegBatchRequest is the one-shot form of Sealer.OpenRegBatchRequest.
func OpenRegBatchRequest(key []byte, wantCtr uint64, frame []byte) ([]RegTxn, error) {
	return oneShot(key, func(s *Sealer) ([]RegTxn, error) { return s.OpenRegBatchRequest(wantCtr, frame, nil) })
}

// OpenRegBatchResponse is the one-shot form of Sealer.OpenRegBatchResponse.
func OpenRegBatchResponse(key []byte, wantCtr uint64, frame []byte) ([]RegResult, error) {
	return oneShot(key, func(s *Sealer) ([]RegResult, error) { return s.OpenRegBatchResponse(wantCtr, frame, nil) })
}

// SealRekeyRequest is the one-shot form of Sealer.SealRekeyRequest.
func SealRekeyRequest(key []byte, ctr uint64, newKey []byte, newCtr uint64) ([]byte, error) {
	return oneShot(key, func(s *Sealer) ([]byte, error) { return s.SealRekeyRequest(ctr, newKey, newCtr) })
}

// OpenRekeyResponse is the one-shot form of Sealer.OpenRekeyResponse.
func OpenRekeyResponse(key []byte, wantCtr uint64, frame []byte) error {
	s, err := NewSealer(key)
	if err != nil {
		return err
	}
	return s.OpenRekeyResponse(wantCtr, frame)
}

// ---------------------------------------------------------------------------
// Direct (unprotected) channel

// EncodeDirectReg frames a plaintext register transaction.
func EncodeDirectReg(txn RegTxn) []byte {
	return appendRegTxn(append(make([]byte, 0, 1+regTxnSize), MsgDirectReg), txn)
}

// DecodeDirectReg parses a plaintext register transaction.
func DecodeDirectReg(b []byte) (RegTxn, error) {
	body, ok := expectTag(b, MsgDirectReg)
	if !ok {
		return RegTxn{}, ErrMalformed
	}
	txn, ok := decodeRegTxn(body)
	if !ok {
		return RegTxn{}, ErrMalformed
	}
	return txn, nil
}

// AppendDirectResp appends a plaintext register result frame to dst.
func AppendDirectResp(dst []byte, res RegResult) []byte {
	return appendRegResult(append(dst, MsgDirectResp), res)
}

// DecodeDirectResp parses a plaintext register result.
func DecodeDirectResp(b []byte) (RegResult, error) {
	body, ok := expectTag(b, MsgDirectResp)
	if !ok {
		return RegResult{}, ErrMalformed
	}
	res, ok := decodeRegResult(body)
	if !ok {
		return RegResult{}, ErrMalformed
	}
	return res, nil
}

// MemWrite is a bulk DMA write to CL-attached device memory.
type MemWrite struct {
	Addr uint64
	Data []byte
}

// MemRead requests n bytes from CL-attached device memory.
type MemRead struct {
	Addr uint64
	N    uint32
}

// EncodeMemWrite frames a DMA write. Payloads beyond the uint32 length
// field are refused with ErrMalformed instead of encoding a frame whose
// length prefix silently truncates.
func EncodeMemWrite(m MemWrite) ([]byte, error) {
	if uint64(len(m.Data)) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: DMA write of %d bytes exceeds frame limit", ErrMalformed, len(m.Data))
	}
	out := []byte{MsgMemWrite}
	out = binary.BigEndian.AppendUint64(out, m.Addr)
	out = binary.BigEndian.AppendUint32(out, uint32(len(m.Data)))
	return append(out, m.Data...), nil
}

// DecodeMemWrite parses a DMA write.
func DecodeMemWrite(b []byte) (MemWrite, error) {
	body, ok := expectTag(b, MsgMemWrite)
	if !ok || len(body) < 12 {
		return MemWrite{}, ErrMalformed
	}
	n := binary.BigEndian.Uint32(body[8:12])
	if uint32(len(body)-12) != n {
		return MemWrite{}, ErrMalformed
	}
	return MemWrite{Addr: binary.BigEndian.Uint64(body), Data: body[12:]}, nil
}

// EncodeMemRead frames a DMA read request.
func EncodeMemRead(m MemRead) []byte {
	return AppendMemRead(make([]byte, 0, 1+8+4), m)
}

// AppendMemRead appends a DMA read request frame to dst.
func AppendMemRead(dst []byte, m MemRead) []byte {
	dst = binary.BigEndian.AppendUint64(append(dst, MsgMemRead), m.Addr)
	return binary.BigEndian.AppendUint32(dst, m.N)
}

// DecodeMemRead parses a DMA read request.
func DecodeMemRead(b []byte) (MemRead, error) {
	body, ok := expectTag(b, MsgMemRead)
	if !ok || len(body) != 12 {
		return MemRead{}, ErrMalformed
	}
	return MemRead{Addr: binary.BigEndian.Uint64(body), N: binary.BigEndian.Uint32(body[8:12])}, nil
}

// DMABurst is the most data one DMA frame carries on the job path: the
// host splits larger transfers into bursts, as a real PCIe DMA engine does.
const DMABurst = 1 << 20

// AppendMemData appends an n-byte DMA read response frame to dst and
// returns the frame together with its data region, which the caller fills
// (the CL's DMA engine reads device memory straight into it), so a
// responder can reuse one frame buffer. The data region is not cleared: the
// caller must fill all of it. n = 0 is the empty acknowledgement of a DMA
// write.
func AppendMemData(dst []byte, n uint32) (frame, data []byte) {
	start := len(dst)
	frame = slices.Grow(dst, 1+4+int(n))[:start+1+4+int(n)]
	frame[start] = MsgMemData
	binary.BigEndian.PutUint32(frame[start+1:], n)
	return frame, frame[start+5:]
}

// DecodeMemData parses DMA read data.
func DecodeMemData(b []byte) ([]byte, error) {
	body, ok := expectTag(b, MsgMemData)
	if !ok || len(body) < 4 {
		return nil, ErrMalformed
	}
	n := binary.BigEndian.Uint32(body)
	if uint32(len(body)-4) != n {
		return nil, ErrMalformed
	}
	return body[4:], nil
}

// EncodeError frames a CL-side error string. The error path must always
// produce a decodable frame, so an overlong message is clamped to the
// uint16 length prefix rather than encoding a short length followed by the
// full bytes (which the decoder would reject, masking the original error).
func EncodeError(msg string) []byte {
	if len(msg) > maxStringLen {
		msg = msg[:maxStringLen]
	}
	return appendString([]byte{MsgError}, msg)
}

// DecodeError parses an error frame; ok reports whether b is one.
func DecodeError(b []byte) (string, bool) {
	body, ok := expectTag(b, MsgError)
	if !ok {
		return "", false
	}
	s, rest, ok := takeString(body)
	if !ok || len(rest) != 0 {
		return "", false
	}
	return s, true
}

// MsgType returns the type tag of a frame, or 0 for an empty frame.
func MsgType(b []byte) byte {
	if len(b) == 0 {
		return 0
	}
	return b[0]
}

// ---------------------------------------------------------------------------
// Framing helpers

func expectTag(b []byte, tag byte) ([]byte, bool) {
	if len(b) < 1 || b[0] != tag {
		return nil, false
	}
	return b[1:], true
}

// maxStringLen is the longest string the uint16 length prefix can carry.
const maxStringLen = 1<<16 - 1

// appendString encodes a length-prefixed string. Callers must validate
// len(s) <= maxStringLen first — a longer string would encode a truncated
// length followed by the full bytes, a frame the decoder rejects.
func appendString(out []byte, s string) []byte {
	out = binary.BigEndian.AppendUint16(out, uint16(len(s)))
	return append(out, s...)
}

func takeString(b []byte) (string, []byte, bool) {
	if len(b) < 2 {
		return "", nil, false
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b)-2 < n {
		return "", nil, false
	}
	return string(b[2 : 2+n]), b[2+n:], true
}
