// Package perfmodel reproduces the paper's runtime evaluation (§6.4):
// Figure 10 (speedup of workloads on the Salus FPGA TEE over an SGX CPU
// TEE) and Table 6 (the slowdown each TEE adds over its own non-TEE
// baseline).
//
// The model is analytic: it derives the four configurations per benchmark
// — CPU plain, CPU TEE, FPGA plain, FPGA TEE — from per-application
// baseline times plus architectural overhead terms: enclave transition and
// OpenSSL-style buffer encryption plus transparent EPC encryption pressure
// for the CPU TEE; AES-CTR pipeline fill plus a small inline stall for the
// FPGA TEE. Plain-baseline times for Conv, Rendering and FaceDetect are the
// paper's own measurements (Table 6 cites Rosetta's U200 numbers for two of
// them); Affine and NNSearch baselines are chosen to land inside the
// paper's reported 1.17x–15.64x speedup band. EXPERIMENTS.md records
// modelled vs paper values. The Go kernels themselves, with real
// data-plane traffic (AES-GCM, an extension of the paper's AES-CTR engine),
// are timed by the root package's BenchmarkFigure10Kernels.
package perfmodel

import (
	"fmt"
	"strings"
	"time"
)

// AppModel carries one benchmark's workload character at paper scale.
type AppModel struct {
	Name string

	// Plain-execution baselines (no TEE).
	CPUPlain  time.Duration
	FPGAPlain time.Duration

	// Traffic through the memory encryption engines, bytes.
	InBytes  float64
	OutBytes float64 // counted only when the app encrypts outbound traffic
	// WorkingSet is the enclave-resident state the CPU TEE transparently
	// encrypts (EPC pressure).
	WorkingSet float64
	// Bursts is the number of DMA bursts the FPGA job issues (each pays
	// one AES pipeline fill).
	Bursts float64
}

// Constants are the architectural overhead terms shared by all apps.
type Constants struct {
	// CPU TEE terms.
	ECall           time.Duration // enclave transition + OpenSSL context per job
	EnclaveCryptoBW float64       // bytes/s of in-enclave buffer encryption
	EPCPerByte      time.Duration // transparent memory encryption pressure

	// FPGA TEE terms.
	AESFill       time.Duration // AES-CTR pipeline fill per DMA burst
	InlineStallBW float64       // bytes/s equivalent of inline stalls
}

// DefaultConstants is the calibration used across the evaluation; see
// EXPERIMENTS.md for the derivation against Table 6.
func DefaultConstants() Constants {
	return Constants{
		ECall:           1200 * time.Microsecond,
		EnclaveCryptoBW: 220e6,
		EPCPerByte:      22 * time.Nanosecond,
		AESFill:         55 * time.Microsecond,
		InlineStallBW:   2.4e9,
	}
}

// PaperApps returns the five benchmarks at Table 4 scale. Conv, Rendering
// and FaceDetect plain baselines are Table 6's measured values; Affine and
// NNSearch are modelled (see package comment).
func PaperApps() []AppModel {
	return []AppModel{
		{
			Name:       "Conv",
			CPUPlain:   3038520 * time.Microsecond,
			FPGAPlain:  1522090 * time.Microsecond,
			InBytes:    34 * 34 * 256 * 2, // int16 feature map
			OutBytes:   0,                 // outputs stay plaintext
			WorkingSet: 870e3,
			Bursts:     2,
		},
		{
			Name:       "Affine",
			CPUPlain:   86500 * time.Microsecond,
			FPGAPlain:  6190 * time.Microsecond,
			InBytes:    512 * 512,
			OutBytes:   512 * 512,
			WorkingSet: 620e3,
			Bursts:     4,
		},
		{
			Name:       "Rendering",
			CPUPlain:   1240 * time.Microsecond,
			FPGAPlain:  4400 * time.Microsecond,
			InBytes:    3192 * 9,
			OutBytes:   256 * 256,
			WorkingSet: 150e3,
			Bursts:     4,
		},
		{
			Name:       "FaceDetect",
			CPUPlain:   26690 * time.Microsecond,
			FPGAPlain:  21500 * time.Microsecond,
			InBytes:    320 * 240,
			OutBytes:   0,
			WorkingSet: 2900e3,
			Bursts:     10,
		},
		{
			Name:       "NNSearch",
			CPUPlain:   41200 * time.Microsecond,
			FPGAPlain:  4980 * time.Microsecond,
			InBytes:    (8192 + 256) * 4 * 4,
			OutBytes:   0,
			WorkingSet: 260e3,
			Bursts:     2,
		},
	}
}

// CPUTime returns the modelled CPU execution time, with or without the SGX
// TEE.
func CPUTime(m AppModel, tee bool, c Constants) time.Duration {
	if !tee {
		return m.CPUPlain
	}
	crypto := secondsToDuration((m.InBytes + m.OutBytes) / c.EnclaveCryptoBW)
	epc := time.Duration(m.WorkingSet) * c.EPCPerByte
	return m.CPUPlain + c.ECall + crypto + epc
}

// FPGATime returns the modelled FPGA execution time, with or without the
// Salus TEE's inline memory encryption.
func FPGATime(m AppModel, tee bool, c Constants) time.Duration {
	if !tee {
		return m.FPGAPlain
	}
	fill := time.Duration(m.Bursts) * c.AESFill
	stall := secondsToDuration((m.InBytes + m.OutBytes) / c.InlineStallBW)
	return m.FPGAPlain + fill + stall
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// Slowdown is one Table 6 row.
type Slowdown struct {
	Name                  string
	CPUPlain, CPUTEE      time.Duration
	FPGAPlain, FPGATEE    time.Duration
	CPUSlowdown, FPGASlow float64
}

// Table6 computes the slowdown table for all five benchmarks (the paper
// prints three; the harness prints all five with the paper's three first).
func Table6(c Constants) []Slowdown {
	var out []Slowdown
	for _, m := range PaperApps() {
		cp, ct := CPUTime(m, false, c), CPUTime(m, true, c)
		fp, ft := FPGATime(m, false, c), FPGATime(m, true, c)
		out = append(out, Slowdown{
			Name:     m.Name,
			CPUPlain: cp, CPUTEE: ct,
			FPGAPlain: fp, FPGATEE: ft,
			CPUSlowdown: float64(ct) / float64(cp),
			FPGASlow:    float64(ft) / float64(fp),
		})
	}
	return out
}

// SpeedupRow is one Figure 10 bar: normalised execution time of Salus
// relative to SGX, i.e. speedup = CPU-TEE time / FPGA-TEE time.
type SpeedupRow struct {
	Name    string
	Speedup float64
}

// Figure10 computes the speedup of the securely booted FPGA TEE over the
// SGX CPU TEE for every benchmark.
func Figure10(c Constants) []SpeedupRow {
	var out []SpeedupRow
	for _, m := range PaperApps() {
		out = append(out, SpeedupRow{
			Name:    m.Name,
			Speedup: float64(CPUTime(m, true, c)) / float64(FPGATime(m, true, c)),
		})
	}
	return out
}

// FormatTable6 renders Table 6 next to the paper's layout.
func FormatTable6(rows []Slowdown) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %12s %8s %12s %12s %8s\n",
		"Application", "CPU w/o TEE", "CPU w/ TEE", "Slow.", "FPGA w/o TEE", "FPGA w/ TEE", "Slow.")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12s %12s %7.2fx %12s %12s %7.2fx\n",
			r.Name,
			fmtMS(r.CPUPlain), fmtMS(r.CPUTEE), r.CPUSlowdown,
			fmtMS(r.FPGAPlain), fmtMS(r.FPGATEE), r.FPGASlow)
	}
	return b.String()
}

// FormatFigure10 renders the speedup series.
func FormatFigure10(rows []SpeedupRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %9s  %s\n", "Application", "Speedup", "(Salus FPGA TEE over SGX)")
	for _, r := range rows {
		bar := strings.Repeat("#", int(r.Speedup*2+0.5))
		fmt.Fprintf(&b, "%-14s %8.2fx  %s\n", r.Name, r.Speedup, bar)
	}
	return b.String()
}

func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.2f ms", float64(d)/float64(time.Millisecond))
}
