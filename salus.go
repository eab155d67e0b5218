// Package salus is a pure-Go reproduction of "Salus: A Practical Trusted
// Execution Environment for CPU-FPGA Heterogeneous Cloud Platforms"
// (ASPLOS 2024): a TEE for commercial-off-the-shelf cloud FPGAs that needs
// no extra root-of-trust hardware. A Secure Manager (SM) enclave on a
// TEE-enabled host injects a freshly generated attestation key into the
// custom-logic bitstream via bitstream manipulation, encrypts it under the
// per-device key obtained from the manufacturer's key-distribution service,
// deploys it through the untrusted shell, attests the loaded logic with a
// light-weight symmetric challenge/response, and chains everything into a
// single cascaded attestation the data owner verifies in one round trip.
//
// Because both SGX and cloud FPGAs are hardware-gated, every substrate is
// simulated in software with matching protocol-visible behaviour — see
// DESIGN.md for the substitution table. The public API assembles a full
// deployment:
//
//	sys, err := salus.NewSystem(salus.SystemConfig{Kernel: salus.Conv{}})
//	report, err := sys.SecureBoot()      // Figure 3 ①–⑧
//	out, err := sys.RunJob(workload)     // §4.5 secure offload
//
// The cmd/ binaries regenerate every table and figure of the paper's
// evaluation; EXPERIMENTS.md records paper-vs-measured values.
package salus

import (
	"salus/internal/accel"
	"salus/internal/client"
	"salus/internal/core"
	"salus/internal/fpga"
	"salus/internal/netlist"
	"salus/internal/perfmodel"
	"salus/internal/sgx"
	"salus/internal/shell"
	"salus/internal/smapp"
)

// --- Deployment assembly ----------------------------------------------------

// SystemConfig configures a deployment; see core.SystemConfig.
type SystemConfig = core.SystemConfig

// System is an assembled cloud FPGA instance: manufacturer, TEE host,
// device, shell, and both enclave applications.
type System = core.System

// BootReport is the outcome of a secure boot, including the deferred quote.
type BootReport = core.BootReport

// NewSystem manufactures and assembles a deployment.
func NewSystem(cfg SystemConfig) (*System, error) { return core.NewSystem(cfg) }

// NewMultiRPSystem assembles the §4.7 extension: one device exposing one
// reconfigurable partition per kernel, each a full System — own enclave
// pair, sealed register channel and key epoch — that boots, attests and
// runs jobs independently of its co-residents.
func NewMultiRPSystem(profile DeviceProfile, dna DNA, kernels []Kernel, timing Timing) ([]*System, error) {
	return core.NewPartitionSystems(SystemConfig{Profile: profile, DNA: dna, Timing: timing}, kernels)
}

// --- Developer flow -----------------------------------------------------------

// CLPackage is a compiled custom logic: bitstream, digest H, Loc_Keyattest.
type CLPackage = core.CLPackage

// DevelopCL runs the development flow of §4.2 for a kernel.
func DevelopCL(k Kernel, profile DeviceProfile, seed int64) (*CLPackage, error) {
	return core.DevelopCL(k, profile, seed)
}

// --- Kernels and workloads -----------------------------------------------------

// Kernel is a benchmark accelerator (Table 4).
type Kernel = accel.Kernel

// Workload is a ready-to-run job.
type Workload = accel.Workload

// The five benchmark kernels.
type (
	// Conv is the single-convolution-layer benchmark.
	Conv = accel.Conv
	// Affine is the image affine-transformation benchmark.
	Affine = accel.Affine
	// Rendering is the 3-D rendering benchmark.
	Rendering = accel.Rendering
	// FaceDetect is the Viola-Jones face detection benchmark.
	FaceDetect = accel.FaceDetect
	// NNSearch is the nearest-neighbour search benchmark.
	NNSearch = accel.NNSearch
)

// Kernels returns the five benchmark kernels in Table 4 order.
func Kernels() []Kernel { return accel.Kernels() }

// KernelByName looks a kernel up by its Table 4 name.
func KernelByName(name string) (Kernel, bool) { return accel.KernelByName(name) }

// PaperWorkload builds the paper-scale workload for a kernel name.
func PaperWorkload(name string, seed int64) (Workload, bool) { return accel.PaperWorkload(name, seed) }

// TestWorkload builds a small, fast workload for a kernel name.
func TestWorkload(name string, seed int64) (Workload, bool) { return accel.TestWorkload(name, seed) }

// --- Devices -------------------------------------------------------------------

// DeviceProfile describes device geometry and resources.
type DeviceProfile = netlist.DeviceProfile

// DNA is a device's unique factory identifier.
type DNA = fpga.DNA

// Device profiles.
var (
	// U200 models the Alveo U200 of the paper's prototype.
	U200 = netlist.U200
	// U250 models the larger sibling (portability: Salus is not
	// device-bound).
	U250 = netlist.U250
	// TestDevice is a small-bitstream profile for fast experiments.
	TestDevice = netlist.TestDevice
)

// U200Floorplan reproduces Figure 8.
func U200Floorplan() netlist.Floorplan { return netlist.U200Floorplan() }

// --- Timing and experiments -----------------------------------------------------

// Timing is the boot-time model; see EXPERIMENTS.md for calibration.
type Timing = core.Timing

// DefaultTiming is the Figure 9 calibration.
func DefaultTiming() Timing { return core.DefaultTiming() }

// FastTiming disables timing simulation (tests, quick demos).
func FastTiming() Timing { return core.FastTiming() }

// Figure9Result is the booting-time experiment outcome.
type Figure9Result = core.Figure9Result

// RunFigure9 regenerates the §6.3 booting-time experiment at U200 scale.
func RunFigure9(kernelName string) (*Figure9Result, error) { return core.RunFigure9(kernelName) }

// FormatFigure9 renders the breakdown next to the paper's values.
func FormatFigure9(r *Figure9Result) string { return core.FormatFigure9(r) }

// Table3Row is one adversarial scenario's outcome.
type Table3Row = core.Table3Row

// RunTable3 launches every threat-model attack against live deployments
// and reports where each was stopped (Table 3 / §4.6).
func RunTable3() []Table3Row { return core.RunTable3() }

// FormatTable3 renders the protection matrix.
func FormatTable3(rows []Table3Row) string { return core.FormatTable3(rows) }

// PerfConstants are the §6.4 runtime-model overhead terms.
type PerfConstants = perfmodel.Constants

// DefaultPerfConstants is the Table 6 calibration.
func DefaultPerfConstants() PerfConstants { return perfmodel.DefaultConstants() }

// Table6 computes the TEE-slowdown table for all benchmarks.
func Table6(c PerfConstants) []perfmodel.Slowdown { return perfmodel.Table6(c) }

// Figure10 computes the Salus-over-SGX speedups.
func Figure10(c PerfConstants) []perfmodel.SpeedupRow { return perfmodel.Figure10(c) }

// FormatTable6 renders Table 6.
func FormatTable6(rows []perfmodel.Slowdown) string { return perfmodel.FormatTable6(rows) }

// FormatFigure10 renders Figure 10.
func FormatFigure10(rows []perfmodel.SpeedupRow) string { return perfmodel.FormatFigure10(rows) }

// --- Verification (data owner side) ----------------------------------------------

// Expectations pin the identities the data owner verifies against.
type Expectations = client.Expectations

// Verifier is the data owner's attestation checker.
type Verifier = client.Verifier

// NewVerifier creates a data-owner verifier.
func NewVerifier(exp Expectations) *Verifier { return client.New(exp) }

// Quote is a remote attestation quote.
type Quote = sgx.Quote

// Measurement is an enclave measurement (MRENCLAVE).
type Measurement = sgx.Measurement

// --- Adversary toolkit (attack experiments) ---------------------------------------

// Interceptor is the hook a compromised shell uses on mediated traffic.
type Interceptor = shell.Interceptor

// Attack interceptors; see internal/shell/attacks.go and Table 3.
type (
	// SubstituteCL replaces loaded bitstreams with the attacker's own.
	SubstituteCL = shell.SubstituteCL
	// TamperBits flips a bit in every loaded bitstream.
	TamperBits = shell.TamperBits
	// TamperRequests corrupts host→CL transactions.
	TamperRequests = shell.TamperRequests
	// TamperResponses corrupts CL→host responses.
	TamperResponses = shell.TamperResponses
	// ReplayRequests replays recorded secure-channel frames.
	ReplayRequests = shell.ReplayRequests
	// ForgeAttestation fabricates CL attestation responses without the key.
	ForgeAttestation = shell.ForgeAttestation
	// SpoofDNA rewrites the device identity in attestation responses.
	SpoofDNA = shell.SpoofDNA
)

// WithReadbackEnabled manufactures a legacy device whose ICAP still allows
// configuration readback — the §5.1.2 ablation.
func WithReadbackEnabled() fpga.Option { return fpga.WithReadbackEnabled() }

// ErrCLAttestation is returned when the loaded CL fails attestation.
var ErrCLAttestation = smapp.ErrCLAttestation
