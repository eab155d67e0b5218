// Package core is the paper's primary contribution assembled: it wires the
// substrates (CPU TEE, FPGA device, shell, manufacturer, enclave
// applications) into a deployable system and drives the protocols —
//
//   - the developer flow (§4.2 "Heterogeneous application development"):
//     integrate the SM logic, implement, record H and Loc_Keyattest;
//   - the secure CL booting flow with dynamic RoT injection
//     (Figure 3 ①–⑧);
//   - the cascaded attestation (Figure 4b) ending in one deferred quote the
//     data owner verifies;
//   - the runtime interface (§4.5): data-key exchange over the secure
//     register channel, bulk ciphertext over the direct channel;
//   - the §4.7 extension: multiple reconfigurable partitions with a master
//     SM enclave and per-partition slave agents;
//   - the SGX-FPGA-style multi-stage attestation baseline used by the
//     ablation study.
package core

import (
	"time"

	"salus/internal/simnet"
)

// Timing collects every knob of the boot-time model. Real cryptographic
// and bitstream work is executed and measured; the slowdown factors model
// running it inside an enclave (SGX EPC pressure for crypto, the
// RapidWright-under-Occlum JVM for manipulation); the quote durations model
// DCAP round trips our testbed does not have. Calibration against Figure 9
// is documented in EXPERIMENTS.md.
type Timing struct {
	// EnclaveSlowdown multiplies measured in-enclave crypto time
	// (hashing, AES-GCM, ECDH).
	EnclaveSlowdown float64
	// ToolSlowdown multiplies measured bitstream-manipulation time,
	// modelling the untailored RapidWright-inside-Occlum deployment the
	// paper measures at 73.2% of total boot.
	ToolSlowdown float64

	// Modelled DCAP interactions.
	SMQuoteGen      time.Duration // SM enclave quote generation
	SMQuoteVerify   time.Duration // manufacturer-side DCAP verification (intra-cloud)
	UserQuoteGen    time.Duration // user enclave quote generation
	UserQuoteVerify time.Duration // client-side DCAP verification (WAN)

	// Links.
	WAN        simnet.Link // user client ↔ cloud instance
	IntraCloud simnet.Link // instance ↔ manufacturer server
	PCIe       simnet.Link // host ↔ FPGA shell
	Loopback   simnet.Link // enclave ↔ enclave on the same host

	// RealJobLatency is the real wall-clock time the host spends blocked
	// on the board per kernel execution (DMA + fabric run on a physical
	// U200). Unlike every field above it is not charged to the virtual
	// clock: the job path actually sleeps, so host-side overlap across
	// multiple boards — the effect internal/sched exists to exploit — is
	// observable in real time. Zero (the default, and FastTiming) disables
	// it; only the multi-device scheduler benchmarks set it.
	RealJobLatency time.Duration

	// RealBootLatency is the RealJobLatency analogue for secure boot: real
	// wall-clock time the host spends blocked on the board while the shell
	// programs the encrypted partial bitstream through the ICAP. Like
	// RealJobLatency it is slept, not charged to the virtual clock, so the
	// speedup of booting a fleet in parallel (internal/fleet) is observable
	// in real time. Zero (the default) disables it; only the fleet
	// benchmarks set it.
	RealBootLatency time.Duration
}

// DefaultTiming returns the calibration used to regenerate Figure 9 on a
// U200-scale bitstream. The quote-path constants are taken from the
// paper's own measurements (key distribution 1709 ms intra-cloud, user RA
// 2568 ms over WAN); the slowdown factors were calibrated once against the
// native crypto/manipulation throughputs recorded in internal/simtime (see
// EXPERIMENTS.md).
func DefaultTiming() Timing {
	return Timing{
		EnclaveSlowdown: 16,
		ToolSlowdown:    440,
		SMQuoteGen:      646 * time.Millisecond,
		SMQuoteVerify:   1043 * time.Millisecond,
		UserQuoteGen:    655 * time.Millisecond,
		UserQuoteVerify: 1671 * time.Millisecond,
		WAN:             simnet.WAN,
		IntraCloud:      simnet.IntraCloud,
		PCIe:            simnet.PCIe,
		Loopback:        simnet.Loopback,
	}
}

// FastTiming disables all modelling: slowdown factors of 1 and no
// synthetic latency. Unit and integration tests use it.
func FastTiming() Timing {
	zero := simnet.Link{}
	return Timing{
		EnclaveSlowdown: 1,
		ToolSlowdown:    1,
		WAN:             zero,
		IntraCloud:      zero,
		PCIe:            zero,
		Loopback:        zero,
	}
}
