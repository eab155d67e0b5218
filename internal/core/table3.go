package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"salus/internal/accel"
	"salus/internal/fpga"
	"salus/internal/netlist"
	"salus/internal/shell"
	"salus/internal/smapp"
)

// Table3Row is one adversarial scenario's outcome: which secret/property
// was targeted, where the flow stopped the attack, and whether the secure
// boot's guarantees held.
type Table3Row struct {
	Attack    string
	Target    string // the secret or property under attack (Table 3 column)
	Outcome   string
	Protected bool
}

// RunTable3 exercises the protection matrix of Table 3 and §4.6: every
// adversarial capability of the threat model is launched against a live
// deployment, and the row records where Salus stopped it. The scenarios run
// on the fast test profile; the defence mechanics are scale-independent.
func RunTable3() []Table3Row {
	kernel := accel.Conv{}
	rows := []Table3Row{
		runScenario("baseline (honest shell)", "—", nil, nil, wantBootOK),
		runScenario("CL substitution during booting", "CL integrity (attack 1)",
			substituteInterceptor(), nil, wantFailsAt(smapp.ErrCLAttestation, "⑦")),
		runScenario("bit-flip on encrypted bitstream", "Key_attest confidentiality/integrity",
			shell.TamperBits{Offset: 4096}, nil, wantFailsContaining("deployment", "⑤⑥")),
		runScenario("PCIe tampering on attestation", "attestation integrity (attack 3)",
			shell.TamperResponses{}, nil, wantFailsAt(smapp.ErrCLAttestation, "⑦")),
		runScenario("forged attestation response", "Key_attest authenticity",
			&shell.ForgeAttestation{}, nil, wantFailsAt(smapp.ErrCLAttestation, "⑦")),
		runScenario("device identity spoofing", "Device DNA binding",
			shell.SpoofDNA{Claim: "B00000000"}, nil, wantFailsAt(smapp.ErrCLAttestation, "⑦")),
		runScenario("replay on runtime channel", "session freshness (attack 3)",
			&shell.ReplayRequests{}, nil, wantRuntimeReplayBlocked(kernel)),
		runScenario("bit-flip on DMA input (MsgMemWrite)", "job data integrity (attack 3)",
			&shell.TamperDMA{}, nil, wantDataPlaneBlocked(kernel)),
		runScenario("bit-flip on DMA output (MsgMemData)", "job result integrity (attack 3)",
			&shell.TamperDMA{Output: true}, nil, wantDataPlaneBlocked(kernel)),
		runScenario("dropped DMA write", "job data integrity (attack 3)",
			&shell.TamperDMA{Drop: true}, nil, wantDataPlaneBlocked(kernel)),
		busSnoop(),
		runScenario("ICAP readback scan", "loaded CL confidentiality",
			nil, nil, wantReadbackBlocked),
		runScenario("wrong bitstream from CSP storage", "CL integrity (digest H)",
			nil, nil, wantDigestRejects(kernel)),
	}
	return rows
}

// checker drives one scenario against a fresh system and reports the row.
type checker func(s *System) (outcome string, protected bool)

func runScenario(name, target string, ic shell.Interceptor, devOpts []fpga.Option, check checker) Table3Row {
	s, err := NewSystem(SystemConfig{
		Kernel:      accel.Conv{},
		Seed:        7,
		Interceptor: ic,
		DeviceOpts:  devOpts,
	})
	if err != nil {
		return Table3Row{Attack: name, Target: target, Outcome: "setup failed: " + err.Error()}
	}
	outcome, protected := check(s)
	return Table3Row{Attack: name, Target: target, Outcome: outcome, Protected: protected}
}

func substituteInterceptor() shell.Interceptor {
	evil, err := DevelopCL(accel.Conv{}, netlist.TestDevice, 666)
	if err != nil {
		return shell.PassThrough{}
	}
	return shell.SubstituteCL{Evil: evil.Encoded}
}

func wantBootOK(s *System) (string, bool) {
	rep, err := s.SecureBoot()
	if err != nil {
		return "boot failed unexpectedly: " + err.Error(), false
	}
	return fmt.Sprintf("boot completed in %v; CL attested on %s", rep.Total, rep.Result.DNA), true
}

func wantFailsAt(target error, step string) checker {
	return func(s *System) (string, bool) {
		_, err := s.SecureBoot()
		if errors.Is(err, target) {
			return "blocked at step " + step + ": " + rootCause(err), true
		}
		if err == nil {
			return "NOT DETECTED: boot succeeded under attack", false
		}
		return "failed elsewhere: " + err.Error(), false
	}
}

func wantFailsContaining(substr, step string) checker {
	return func(s *System) (string, bool) {
		_, err := s.SecureBoot()
		if err != nil && strings.Contains(err.Error(), substr) {
			return "blocked at step " + step + ": " + rootCause(err), true
		}
		if err == nil {
			return "NOT DETECTED: boot succeeded under attack", false
		}
		return "failed elsewhere: " + err.Error(), false
	}
}

func wantRuntimeReplayBlocked(k accel.Kernel) checker {
	return func(s *System) (string, bool) {
		if _, err := s.SecureBoot(); err != nil {
			return "boot failed before the runtime attack: " + err.Error(), false
		}
		// The first job's sealed frame is the one the shell records; the
		// second job's is the first it replaces.
		w, _ := accel.TestWorkload(k.Name(), 3)
		for range 2 {
			if _, err := s.RunJob(w); err != nil {
				return "replayed session frame rejected: " + rootCause(err), true
			}
		}
		return "NOT DETECTED: job ran on replayed frames", false
	}
}

// wantDataPlaneBlocked runs one job under a shell that tampers with its
// DMA traffic: the data plane's tags must refuse it with ErrIntegrity,
// where an encryption-only data plane computes on what the shell wrote.
func wantDataPlaneBlocked(k accel.Kernel) checker {
	return func(s *System) (string, bool) {
		if _, err := s.SecureBoot(); err != nil {
			return "boot failed before the runtime attack: " + err.Error(), false
		}
		w, _ := accel.TestWorkload(k.Name(), 3)
		out, err := s.RunJob(w)
		switch {
		case errors.Is(err, ErrIntegrity):
			return "job refused: " + rootCause(err), true
		case err != nil:
			return "failed elsewhere: " + err.Error(), false
		}
		if want, _ := k.Compute(w.Params, w.Input); !bytes.Equal(out, want) {
			return "NOT DETECTED: wrong output returned with a nil error", false
		}
		return "NOT DETECTED: job ran on tampered traffic", false
	}
}

// busSnoop is the snooping row: the shell installs a Recorder and the
// boot's recorded traffic must hold no plaintext bitstream.
func busSnoop() Table3Row {
	rec := &shell.Recorder{}
	return runScenario("bus snooping", "bitstream/secret confidentiality",
		rec, nil, wantNoPlaintextOnBus(rec))
}

func wantNoPlaintextOnBus(rec *shell.Recorder) checker {
	return func(s *System) (string, bool) {
		if _, err := s.SecureBoot(); err != nil {
			return "boot failed: " + err.Error(), false
		}
		frames := rec.Frames()
		for _, frame := range frames {
			if bytes.HasPrefix(frame, []byte("SLSBSTR1")) {
				return "NOT PROTECTED: plaintext bitstream observed on the bus", false
			}
		}
		return fmt.Sprintf("shell observed %d frames; all bitstream traffic encrypted", len(frames)), true
	}
}

func wantReadbackBlocked(s *System) (string, bool) {
	if _, err := s.SecureBoot(); err != nil {
		return "boot failed: " + err.Error(), false
	}
	if _, err := s.Shell.AttemptReadback(0); errors.Is(err, fpga.ErrReadbackDisabled) {
		return "readback refused by the Salus-compliant ICAP", true
	}
	return "NOT PROTECTED: configuration read back", false
}

func wantDigestRejects(k accel.Kernel) checker {
	return func(s *System) (string, bool) {
		if err := s.User.LocalAttestSM(); err != nil {
			return err.Error(), false
		}
		md := smapp.Metadata{Digest: s.Package.Digest, Loc: s.Package.Loc}
		if err := s.User.ForwardMetadata(md); err != nil {
			return err.Error(), false
		}
		if err := s.SM.FetchDeviceKey(); err != nil {
			return err.Error(), false
		}
		other, err := DevelopCL(k, s.Device.Profile(), 31337)
		if err != nil {
			return err.Error(), false
		}
		if err := s.SM.DeployCL(other.Encoded); errors.Is(err, smapp.ErrDigest) {
			return "blocked at step ⑤: digest H mismatch", true
		}
		return "NOT DETECTED: foreign bitstream deployed", false
	}
}

// rootCause trims wrapped prefixes for compact table cells.
func rootCause(err error) string {
	msg := err.Error()
	if i := strings.LastIndex(msg, ": "); i >= 0 && i+2 < len(msg) {
		// keep the last two segments for context
		if j := strings.LastIndex(msg[:i], ": "); j >= 0 {
			return msg[j+2:]
		}
	}
	return msg
}

// FormatTable3 renders the matrix.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %-36s %-9s %s\n", "Attack", "Target secret/property", "Result", "Detail")
	for _, r := range rows {
		verdict := "BLOCKED"
		if !r.Protected {
			verdict = "FAILED"
		}
		if r.Attack == "baseline (honest shell)" {
			verdict = "OK"
			if !r.Protected {
				verdict = "BROKEN"
			}
		}
		fmt.Fprintf(&b, "%-36s %-36s %-9s %s\n", r.Attack, r.Target, verdict, r.Outcome)
	}
	return b.String()
}
