// Command salus-report regenerates the paper's entire evaluation in one
// run and writes a markdown report (default RESULTS.md): Table 1
// (executable comparison), Figure 8 + Table 5 (floorplan and utilisation),
// Table 3 (attack matrix), Table 6 + Figure 10 (runtime model), Table 2
// (attestation analogy), and — unless -skip-fig9 — the Figure 9 boot-time
// breakdown on a real U200-scale bitstream.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"salus"
	"salus/internal/accel"
	"salus/internal/compare"
	"salus/internal/core"
	"salus/internal/netlist"
	"salus/internal/smlogic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("salus-report: ")
	out := flag.String("o", "RESULTS.md", "output markdown file")
	skipFig9 := flag.Bool("skip-fig9", false, "skip the U200-scale boot")
	flag.Parse()

	var b strings.Builder
	section := func(title string, body func() (string, error)) {
		fmt.Fprintf(&b, "## %s\n\n", title)
		text, err := body()
		if err != nil {
			log.Fatalf("%s: %v", title, err)
		}
		fmt.Fprintf(&b, "```\n%s```\n\n", ensureNL(text))
		fmt.Fprintln(os.Stderr, "done:", title)
	}

	b.WriteString("# Salus reproduction — regenerated evaluation\n\n")
	b.WriteString("Produced by `go run ./cmd/salus-report`. Paper-vs-measured commentary lives in EXPERIMENTS.md.\n\n")

	section("Table 1 — comparison with existing FPGA TEEs (executed)", func() (string, error) {
		rows, err := compare.RunTable1()
		if err != nil {
			return "", err
		}
		return compare.FormatTable1(rows), nil
	})

	section("Figure 8 — floor planning", func() (string, error) {
		return salus.U200Floorplan().String(), nil
	})

	section("Table 5 — resource utilisation breakdown", func() (string, error) {
		mods := make([]netlist.ModuleSpec, 0, 6)
		for _, k := range accel.Kernels() {
			mods = append(mods, k.Module())
		}
		mods = append(mods, smlogic.Module())
		return netlist.UtilizationReport(salus.U200, mods), nil
	})

	section("Table 2 — SGX local attestation vs Salus CL attestation", func() (string, error) {
		return core.Table2(), nil
	})

	section("Table 3 — protection of secrets (attack matrix)", func() (string, error) {
		rows := salus.RunTable3()
		for _, r := range rows {
			if !r.Protected {
				return "", fmt.Errorf("attack not blocked: %s", r.Attack)
			}
		}
		return salus.FormatTable3(rows), nil
	})

	c := salus.DefaultPerfConstants()
	section("Table 6 — TEE slowdowns", func() (string, error) {
		return salus.FormatTable6(salus.Table6(c)), nil
	})
	section("Figure 10 — workload speedups", func() (string, error) {
		return salus.FormatFigure10(salus.Figure10(c)), nil
	})

	if !*skipFig9 {
		section("Figure 9 — CL booting time (real U200-scale bitstream)", func() (string, error) {
			r, err := salus.RunFigure9("Conv")
			if err != nil {
				return "", err
			}
			return salus.FormatFigure9(r), nil
		})
	}

	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("report written:", *out)
}

func ensureNL(s string) string {
	if !strings.HasSuffix(s, "\n") {
		return s + "\n"
	}
	return s
}
