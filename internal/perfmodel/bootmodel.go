package perfmodel

import (
	"fmt"
	"strings"
	"time"

	"salus/internal/simtime"
)

// BootModel is the analytic counterpart of the measured Figure 9 harness:
// a closed-form booting-time model for what-if sweeps (bigger partitions,
// faster links, tailored in-enclave toolchains) without running the real
// bitstream operations. Throughputs are the native rates the harness itself
// charges from (simtime), through the same formula (simtime.SizeCost); the
// slowdown factors mirror core.DefaultTiming.
type BootModel struct {
	BitstreamBytes float64

	// Native throughputs of the bitstream operations (bytes/s).
	HashBW  float64
	GCMBW   float64
	ManipBW float64

	// In-enclave execution penalties.
	EnclaveSlowdown float64
	ToolSlowdown    float64

	// Attestation path constants (from the paper's measurements).
	SMQuoteGen      time.Duration
	SMQuoteVerify   time.Duration
	UserQuoteGen    time.Duration
	UserQuoteVerify time.Duration
	LocalAttest     time.Duration
	CLAuth          time.Duration

	// PCIe deployment.
	PCIeBW  float64
	PCIeRTT time.Duration
}

// DefaultBootModel returns the calibrated model for a partial bitstream of
// the given size.
func DefaultBootModel(bitstreamBytes int) BootModel {
	return BootModel{
		BitstreamBytes:  float64(bitstreamBytes),
		HashBW:          simtime.HashBytesPerSec,
		GCMBW:           simtime.GCMBytesPerSec,
		ManipBW:         simtime.ManipBytesPerSec,
		EnclaveSlowdown: 16,
		ToolSlowdown:    440,
		SMQuoteGen:      646 * time.Millisecond,
		SMQuoteVerify:   1043 * time.Millisecond,
		UserQuoteGen:    655 * time.Millisecond,
		UserQuoteVerify: 1913 * time.Millisecond, // incl. WAN round trips
		LocalAttest:     836 * time.Microsecond,
		CLAuth:          1300 * time.Microsecond,
		PCIeBW:          12e9,
		PCIeRTT:         600 * time.Microsecond,
	}
}

// BootSegment is one modelled phase.
type BootSegment struct {
	Name string
	D    time.Duration
}

// Breakdown returns the modelled Figure 9 segments.
func (m BootModel) Breakdown() []BootSegment {
	manip := simtime.SizeCost(m.BitstreamBytes, m.ManipBW, m.ToolSlowdown)
	verifEnc := simtime.SizeCost(m.BitstreamBytes, m.HashBW, m.EnclaveSlowdown) +
		simtime.SizeCost(m.BitstreamBytes, m.GCMBW, m.EnclaveSlowdown)
	deploy := m.PCIeRTT/2 + time.Duration(m.BitstreamBytes/m.PCIeBW*float64(time.Second))
	return []BootSegment{
		{Name: "Bitstream Manipulation", D: manip},
		{Name: "User RA", D: m.UserQuoteGen + m.UserQuoteVerify},
		{Name: "Device Key Dist.", D: m.SMQuoteGen + m.SMQuoteVerify},
		{Name: "Bitstream Verif. & Enc.", D: verifEnc},
		{Name: "CL Deployment", D: deploy},
		{Name: "CL Authentication", D: m.CLAuth},
		{Name: "Local Attestation", D: m.LocalAttest},
	}
}

// Total returns the modelled boot time.
func (m BootModel) Total() time.Duration {
	var t time.Duration
	for _, s := range m.Breakdown() {
		t += s.D
	}
	return t
}

// ManipulationShare returns the fraction of the boot spent in bitstream
// manipulation (the paper reports 73.2%).
func (m BootModel) ManipulationShare() float64 {
	return float64(m.Breakdown()[0].D) / float64(m.Total())
}

// VMBootComparison renders §6.3's proportionality argument: the secure CL
// boot is a one-shot cost on top of the cloud VM instance's own boot (the
// paper cites 40+ seconds).
func VMBootComparison(bootTotal, vmBoot time.Duration) string {
	frac := float64(bootTotal) / float64(vmBoot+bootTotal)
	return fmt.Sprintf("secure CL boot %v on top of a %v VM boot: %.0f%% of instance readiness time",
		bootTotal.Round(100*time.Millisecond), vmBoot, frac*100)
}

// FormatBootModel renders the modelled breakdown.
func FormatBootModel(m BootModel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Modelled boot for a %.0f MiB partial bitstream:\n", m.BitstreamBytes/(1<<20))
	total := m.Total()
	for _, s := range m.Breakdown() {
		fmt.Fprintf(&b, "  %-26s %12v %5.1f%%\n", s.Name, s.D.Round(time.Millisecond), 100*float64(s.D)/float64(total))
	}
	fmt.Fprintf(&b, "  %-26s %12v\n", "TOTAL", total.Round(time.Millisecond))
	return b.String()
}
