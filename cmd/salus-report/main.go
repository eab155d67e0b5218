// Command salus-report regenerates the paper's entire evaluation in one
// run and writes it as markdown (default RESULTS.md; -o /dev/stdout prints
// it): Table 1 (executable comparison), Figure 8 + Table 5 (floorplan and
// utilisation), Table 2 (attestation analogy, with Figure 1's local
// attestation and the §4.4 multi-stage window run), Table 3 (attack matrix),
// Table 6 + Figure 10 (runtime model), and the Figure 9 boot-time breakdown
// on a real U200-scale bitstream.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"salus"
	"salus/internal/accel"
	"salus/internal/compare"
	"salus/internal/core"
	"salus/internal/netlist"
	"salus/internal/sgx"
	"salus/internal/smlogic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("salus-report: ")
	out := flag.String("o", "RESULTS.md", "output markdown file")
	flag.Parse()

	// Render fully before writing, so a failing section never truncates
	// the previous report.
	var b bytes.Buffer
	if err := render(&b); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, b.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}

const header = `# Salus reproduction — regenerated evaluation

Produced by ` + "`go run ./cmd/salus-report`" + `. Paper-vs-measured commentary lives in EXPERIMENTS.md.
Serving-tier numbers come from ` + "`bash bench/run.sh`" + ` (workloads in BENCHMARK.json); the gates run under ` + "`make ci`" + `.

`

// section is one table or figure of the evaluation: a title and the body
// rendered into a fenced block under it.
type section struct {
	title string
	body  func() (string, error)
}

// render writes the whole evaluation report to w.
func render(w io.Writer) error {
	c := salus.DefaultPerfConstants()
	sections := []section{
		{"Table 1 — comparison with existing FPGA TEE works (properties demonstrated, not asserted)", func() (string, error) {
			rows, err := compare.RunTable1()
			if err != nil {
				return "", err
			}
			return compare.FormatTable1(rows) + "\nHE = heterogeneous CPU-FPGA TEE, SA = standalone FPGA TEE\n", nil
		}},
		{"Figure 8 — floor planning of shell and CL on the FPGA", func() (string, error) {
			return salus.U200Floorplan().String(), nil
		}},
		{"Table 5 — resource utilisation breakdown of CL", func() (string, error) {
			mods := make([]netlist.ModuleSpec, 0, 6)
			for _, k := range accel.Kernels() {
				mods = append(mods, k.Module())
			}
			mods = append(mods, smlogic.Module())
			return fmt.Sprintf("%s\nPartial bitstream volume (fixed by the reserved partition, §6.3): %d MiB\n",
				netlist.UtilizationReport(salus.U200, mods), salus.U200.RPBytes()>>20), nil
		}},
		{"Table 2 — SGX local attestation vs Salus CL attestation", table2},
		{"Table 3 — protection of secrets in the secure CL booting flow", func() (string, error) {
			rows := salus.RunTable3()
			for _, r := range rows {
				if !r.Protected {
					return "", fmt.Errorf("attack not blocked: %s", r.Attack)
				}
			}
			return salus.FormatTable3(rows), nil
		}},
		{"Table 6 — slowdown of CPU TEE and FPGA TEE (paper rows: Conv, Rendering, FaceDetect)", func() (string, error) {
			return salus.FormatTable6(salus.Table6(c)), nil
		}},
		{"Figure 10 — performance of realistic workloads on a securely booted FPGA TEE", func() (string, error) {
			return salus.FormatFigure10(salus.Figure10(c)) + "\n(paper envelope: 1.17x – 15.64x)\n", nil
		}},
		{"Figure 9 — CL booting time (real U200-scale bitstream)", func() (string, error) {
			r, err := salus.RunFigure9("Conv")
			if err != nil {
				return "", err
			}
			return salus.FormatFigure9(r), nil
		}},
	}

	if _, err := io.WriteString(w, header); err != nil {
		return err
	}
	for _, s := range sections {
		text, err := s.body()
		if err != nil {
			return fmt.Errorf("%s: %w", s.title, err)
		}
		if !strings.HasSuffix(text, "\n") {
			text += "\n"
		}
		if _, err := fmt.Fprintf(w, "## %s\n\n```\n%s```\n\n", s.title, text); err != nil {
			return err
		}
	}
	return nil
}

// table2 renders Table 2 under two runs: its left column, Figure 1's SGX
// local attestation, on one platform and across two; and the §4.4
// multi-stage baseline on the Figure 9 system, whose customer trusts a
// report issued before the CL was attested.
func table2() (string, error) {
	pa, err := sgx.NewProvisioningAuthority()
	if err != nil {
		return "", err
	}
	var platforms [2]*sgx.Platform
	for i := range platforms {
		if platforms[i], err = sgx.NewPlatform(pa); err != nil {
			return "", err
		}
	}
	user := sgx.EnclaveImage{Name: "user", Version: 1, Code: []byte("user app")}
	sm := sgx.EnclaveImage{Name: "sm", Version: 1, Code: []byte("sm app")}
	verifier := platforms[0].Load(user)
	if _, err := sgx.LocalAttest(verifier, platforms[0].Load(sm), [sgx.ReportDataSize]byte{}); err != nil {
		return "", fmt.Errorf("same-platform local attestation: %w", err)
	}
	if _, err := sgx.LocalAttest(verifier, platforms[1].Load(sm), [sgx.ReportDataSize]byte{}); !errors.Is(err, sgx.ErrBadReport) {
		return "", fmt.Errorf("cross-platform local attestation: err = %v, want %v", err, sgx.ErrBadReport)
	}

	sys, err := core.NewSystem(core.SystemConfig{Profile: netlist.U200, Kernel: accel.Conv{}, Seed: 1, Timing: core.DefaultTiming()})
	if err != nil {
		return "", err
	}
	ms, err := sys.MultiStageBoot()
	if err != nil {
		return "", err
	}
	return core.Table2() + "\n" +
		"Figure 1, run: a same-platform report verifies; a cross-platform report is rejected\n" +
		fmt.Sprintf("§4.4 multi-stage baseline (U200, Conv): customer report at %.1f s, CL attested at %.1f s: a %.1f s exposure window\n",
			ms.ReportAt.Seconds(), ms.CLAttestedAt.Seconds(), ms.Window().Seconds()), nil
}
