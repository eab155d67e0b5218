package core

import (
	"testing"

	"salus/internal/accel"
	"salus/internal/bitstream"
	"salus/internal/channel"
)

// The paper limits Salus to *static* attestation: "Salus only focuses on
// protecting integrity of the CL during bitstream loading, ignoring runtime
// attacks, e.g., runtime bitstream replacement" (§2.1). These tests make
// the boundary concrete: which runtime substitutions the deployed design
// still catches as a side effect of its key management, and which residual
// window genuinely remains for the cited future work.

// A shell that reprograms the partition with a *different* CL at runtime
// destroys the injected session secrets — the very next protected
// transaction fails, and so does re-attestation.
func TestRuntimeReplacementWithForeignCLDetected(t *testing.T) {
	s := newTestSystem(t)
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	w, _ := accel.TestWorkload("Conv", 1)
	if _, err := s.RunJob(w); err != nil {
		t.Fatal(err)
	}

	// Privileged runtime attack: load the attacker's own (plaintext) CL.
	evil, err := DevelopCL(accel.Conv{}, s.Device.Profile(), 31337)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shell.LoadCL(evil.Encoded); err != nil {
		t.Fatal(err) // the shell CAN do this — it is privileged
	}

	// Detection point 1: the next secure register transaction fails (the
	// foreign CL holds no valid Key_session).
	if _, err := s.RunJob(w); err == nil {
		t.Error("job succeeded on a runtime-replaced CL")
	}
	// Detection point 2: explicit re-attestation fails (no Key_attest).
	if err := s.SM.AttestCL(); err == nil {
		t.Error("re-attestation passed on a runtime-replaced CL")
	}
}

// A shell that replays the *original encrypted bitstream* restores the same
// secrets — but the CL's session counter resets to its injected initial
// value while the host's has advanced, so the live channel still desyncs
// and the replacement is caught on the next fresh transaction.
func TestRuntimeReplayOfOriginalBitstreamDesyncs(t *testing.T) {
	rec, bus := recorded()
	s := newTestSystem(t, rec)
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	w, _ := accel.TestWorkload("Conv", 2)
	if _, err := s.RunJob(w); err != nil {
		t.Fatal(err) // advances the session counter by one sealed frame
	}

	// The shell recorded the encrypted bitstream at deployment (frame 0 of
	// its transcript) and replays it into the partition.
	var recorded []byte
	for _, f := range bus.Frames() {
		if bitstream.IsEncrypted(f) {
			recorded = f
			break
		}
	}
	if recorded == nil {
		t.Fatal("no encrypted bitstream in transcript")
	}
	if err := s.Shell.LoadCL(recorded); err != nil {
		t.Fatal(err) // decrypts fine: it is the genuine ciphertext
	}

	// The host's next secure transaction uses a counter ahead of the
	// freshly reset CL: rejected, surfacing the reload.
	if _, err := s.RunJob(w); err == nil {
		t.Error("secure channel survived a bitstream-replay reload undetected")
	}

	// Residual window (the paper's acknowledged limitation): *old recorded
	// frames* from the session's beginning DO verify against the reset
	// counter — a replayed command can re-execute. Static attestation does
	// not close this; runtime attestation (future work) would.
	cl, err := s.Device.CL(0)
	if err != nil {
		t.Fatal(err)
	}
	replayedFrame := findFirstSecureFrame(t, bus.Frames())
	resp, err := cl.HandleTransaction(replayedFrame)
	if err != nil {
		t.Fatal(err)
	}
	if _, isErr := channel.DecodeError(resp); isErr {
		t.Log("note: replayed first-session frame also rejected (stronger than required)")
	}
}

func findFirstSecureFrame(t *testing.T, frames [][]byte) []byte {
	t.Helper()
	for _, f := range frames {
		if t := channel.MsgType(f); t == channel.MsgSecureReg || t == channel.MsgSecureRegBatch {
			return f
		}
	}
	t.Fatal("no secure frame recorded")
	return nil
}

// ReattestCL demonstrates the cheap mitigation available today: because CL
// attestation costs ~1 ms (§6.3), the SM enclave can re-run it at any
// cadence; an intact CL keeps passing.
func TestPeriodicReattestation(t *testing.T) {
	s := newTestSystem(t)
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := s.SM.AttestCL(); err != nil {
			t.Fatalf("re-attestation round %d: %v", i, err)
		}
	}
}
