package core

import (
	"fmt"
	"time"
)

// MultiStageOutcome records the timeline of the SGX-FPGA-style multi-stage
// attestation baseline (§4.4): the customer holds an attestation report at
// ReportAt, but the CL only finishes attestation at CLAttestedAt. The
// interval between them is the window in which a customer trusting the
// report would upload data to an unattested platform — the flaw cascaded
// attestation closes.
type MultiStageOutcome struct {
	ReportAt     time.Duration
	CLAttestedAt time.Duration
}

// Window returns the exposure interval.
func (o MultiStageOutcome) Window() time.Duration { return o.CLAttestedAt - o.ReportAt }

// MultiStageBoot runs the baseline scheme on the same substrates: the user
// enclave is attested and reports to the customer first; the SM enclave and
// CL are attested afterwards, and their results never reach the customer's
// report. Used by the ablation study; SecureBoot is the Salus flow.
func (s *System) MultiStageBoot() (*MultiStageOutcome, error) {
	if err := s.check(EventAttest); err != nil {
		return nil, err
	}

	// Stage 1: user enclave remote attestation — the customer receives
	// this report immediately.
	nonce := make([]byte, 32)
	quote := s.User.GenerateUnchainedQuote(nonce, s.Timing.UserQuoteGen)
	s.Timing.WAN.RoundTrip(s.Clock, 2048, 256)
	s.Clock.Advance(s.Timing.UserQuoteVerify)
	if quote.MRENCLAVE != s.User.Measurement() {
		return nil, fmt.Errorf("core: baseline quote malformed")
	}
	reportAt := s.Clock.Elapsed()

	// Stage 2: SM enclave attestation and CL deployment happen after the
	// customer already trusts the platform.
	if err := s.attestCL(); err != nil {
		return nil, err
	}
	return &MultiStageOutcome{ReportAt: reportAt, CLAttestedAt: s.Clock.Elapsed()}, nil
}
