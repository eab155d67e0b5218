package core

import (
	"fmt"
	"strings"
	"time"

	"salus/internal/accel"
	"salus/internal/netlist"
	"salus/internal/simtime"
	"salus/internal/trace"
)

// Figure9Result is the booting-time experiment outcome: the phase-stamped
// breakdown of one secure CL boot at U200 scale.
type Figure9Result struct {
	Report *BootReport
	Trace  *trace.Log
	Total  time.Duration
}

// RunFigure9 regenerates the paper's booting-time experiment (§6.3): a full
// secure boot of a U200-scale CL — a ~32 MiB partial bitstream really
// hashed, manipulated and encrypted, each charged by its size — under the
// calibrated timing model.
// kernelName selects the benchmark; the paper notes (and this reproduction
// preserves) that bitstream operation time is independent of the
// accelerator, because the partial bitstream size is fixed by the reserved
// partition.
func RunFigure9(kernelName string) (*Figure9Result, error) {
	k, ok := accel.KernelByName(kernelName)
	if !ok {
		return nil, fmt.Errorf("core: unknown kernel %q", kernelName)
	}
	sys, err := NewSystem(SystemConfig{
		Profile: netlist.U200,
		Kernel:  k,
		Seed:    1,
		Timing:  DefaultTiming(),
	})
	if err != nil {
		return nil, err
	}
	rep, err := sys.SecureBoot()
	if err != nil {
		return nil, err
	}
	return &Figure9Result{Report: rep, Trace: sys.Trace, Total: rep.Total}, nil
}

// Figure9Reference reproduces the paper's reported numbers for side-by-side
// printing: segment name → milliseconds.
func Figure9Reference() []struct {
	Phase trace.Phase
	MS    float64
} {
	return []struct {
		Phase trace.Phase
		MS    float64
	}{
		{trace.PhaseBitManipulation, 13832},
		{trace.PhaseUserQuoteGen + " + " + trace.PhaseUserQuoteVerify, 2568},
		{trace.PhaseSMQuoteGen + " + " + trace.PhaseSMQuoteVerify, 1709},
		{trace.PhaseBitVerifyEnc, 725},
		{trace.PhaseCLAuth, 1.3},
		{trace.PhaseLocalAttest, 0.836},
	}
}

// FormatFigure9 renders the modelled breakdown next to the paper's values.
func FormatFigure9(r *Figure9Result) string {
	var b strings.Builder
	b.WriteString("Figure 9 — execution time of CL booting (paper total: 18.8 s)\n\n")
	b.WriteString(r.Trace.String())
	fmt.Fprintf(&b, "\n%-52s %12s\n", "Paper reference segment", "Paper")
	for _, ref := range Figure9Reference() {
		fmt.Fprintf(&b, "%-52s %12s\n", ref.Phase,
			simtime.FormatDuration(time.Duration(ref.MS*float64(time.Millisecond))))
	}
	fmt.Fprintf(&b, "\nModelled total: %s (paper: 18.8 s)\n", simtime.FormatDuration(r.Total))
	return b.String()
}
