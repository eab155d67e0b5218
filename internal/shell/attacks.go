package shell

import (
	"sync"

	"salus/internal/channel"
	"salus/internal/siphash"
)

// This file is the adversary toolkit: one Interceptor per attack class of
// the threat model (§3.1) and Table 3. Each attack is written to be as
// strong as the model allows — full knowledge of every protocol, format,
// and public value; no knowledge of enclave- or CL-held keys.

// PassThrough is the honest baseline: observe everything, change nothing.
type PassThrough struct{}

// OnLoad implements Interceptor.
func (PassThrough) OnLoad(d []byte) []byte { return d }

// OnRequest implements Interceptor.
func (PassThrough) OnRequest(r []byte) []byte { return r }

// OnResponse implements Interceptor.
func (PassThrough) OnResponse(r []byte) []byte { return r }

// Recorder is the snooping adversary: it copies every bitstream, request
// and response the shell carries, in order, and changes nothing. The
// confidentiality claims of the tests (Table 3's bus-snooping row, the
// transcript and replay tests) are stated against what it captured. It
// copies because every payload is borrowed (see Interceptor). Safe for
// concurrent use: the pipelined batch path transacts from two goroutines.
type Recorder struct {
	mu     sync.Mutex
	frames [][]byte
}

func (r *Recorder) record(b []byte) []byte {
	r.mu.Lock()
	r.frames = append(r.frames, append([]byte(nil), b...))
	r.mu.Unlock()
	return b
}

// OnLoad implements Interceptor.
func (r *Recorder) OnLoad(d []byte) []byte { return r.record(d) }

// OnRequest implements Interceptor.
func (r *Recorder) OnRequest(q []byte) []byte { return r.record(q) }

// OnResponse implements Interceptor.
func (r *Recorder) OnResponse(p []byte) []byte { return r.record(p) }

// Frames returns everything recorded so far, in order. The frames are the
// recorder's own copies; callers must not modify them.
func (r *Recorder) Frames() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]byte(nil), r.frames...)
}

// SubstituteCL replaces every loaded bitstream with the attacker's own —
// the booting-integrity attack (Table 3, attack 1): a malicious CL that
// would exfiltrate data if it ever got attested.
type SubstituteCL struct {
	PassThrough
	Evil []byte // the attacker's bitstream (plaintext or encrypted)
}

// OnLoad implements Interceptor.
func (a SubstituteCL) OnLoad([]byte) []byte { return a.Evil }

// TamperBits flips one bit at Offset in every loaded bitstream — the
// blind-modification integrity attack against an encrypted load.
type TamperBits struct {
	PassThrough
	Offset int
}

// OnLoad implements Interceptor.
func (a TamperBits) OnLoad(d []byte) []byte {
	out := append([]byte(nil), d...)
	if len(out) > 0 {
		out[a.Offset%len(out)] ^= 0x01
	}
	return out
}

// TamperRequests flips a bit in every host→CL frame past the type tag —
// the bus integrity attack on PCIe transactions.
type TamperRequests struct{ PassThrough }

// OnRequest implements Interceptor.
func (TamperRequests) OnRequest(r []byte) []byte {
	out := append([]byte(nil), r...)
	if len(out) > 2 {
		out[len(out)/2] ^= 0x10
	}
	return out
}

// TamperResponses flips a bit in every CL→host frame — the bus integrity
// attack in the other direction.
type TamperResponses struct{ PassThrough }

// OnResponse implements Interceptor.
func (TamperResponses) OnResponse(r []byte) []byte {
	out := append([]byte(nil), r...)
	if len(out) > 2 {
		out[len(out)/2] ^= 0x10
	}
	return out
}

// ReplayRequests records the first secure-register frame it sees, a lone
// transaction or a job's whole register program, and substitutes it for
// every later one — the bus replay attack (freshness).
type ReplayRequests struct {
	PassThrough
	recorded []byte
}

// OnRequest implements Interceptor.
func (a *ReplayRequests) OnRequest(r []byte) []byte {
	if t := channel.MsgType(r); t != channel.MsgSecureReg && t != channel.MsgSecureRegBatch {
		return r
	}
	if a.recorded == nil {
		a.recorded = append([]byte(nil), r...)
		return r
	}
	return append([]byte(nil), a.recorded...)
}

// ForgeAttestation answers CL attestation challenges itself instead of
// forwarding them — the "fake CL" confidentiality/integrity attack: if the
// shell could fabricate a valid response without Key_attest, it could
// substitute any CL and still pass attestation. It guesses with a key of
// zeros (any key-independent guess is equivalent under SipHash's PRF
// property).
type ForgeAttestation struct {
	PassThrough
	Attempts int
}

// OnRequest implements Interceptor: it lets the request through unchanged
// (so the transcript stays plausible) but hijacks the response instead.
func (a *ForgeAttestation) OnRequest(r []byte) []byte { return r }

// OnResponse implements Interceptor.
func (a *ForgeAttestation) OnResponse(r []byte) []byte {
	if channel.MsgType(r) != channel.MsgAttestResp {
		return r
	}
	a.Attempts++
	resp, err := channel.DecodeAttestResponse(r)
	if err != nil {
		return r
	}
	guessKey := make([]byte, siphash.KeySize)
	forged := channel.AttestResponse{Value: resp.Value, DNA: resp.DNA}
	forged.MAC = channel.AttestMACResp(guessKey, forged.Value, forged.DNA)
	out, err := forged.Encode()
	if err != nil {
		return r
	}
	return out
}

// SpoofDNA rewrites the DNA in attestation responses — the relocation
// attack where the CSP quietly runs the CL on a different board than the
// one it billed the customer for.
type SpoofDNA struct {
	PassThrough
	Claim string
}

// OnResponse implements Interceptor.
func (a SpoofDNA) OnResponse(r []byte) []byte {
	if channel.MsgType(r) != channel.MsgAttestResp {
		return r
	}
	resp, err := channel.DecodeAttestResponse(r)
	if err != nil {
		return r
	}
	resp.DNA = a.Claim // MAC is left as-is: the attacker cannot recompute it
	out, err := resp.Encode()
	if err != nil {
		return r
	}
	return out
}
