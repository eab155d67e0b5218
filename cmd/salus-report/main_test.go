package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestRenderReport(t *testing.T) {
	var b strings.Builder
	if err := render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	t.Run("section order", func(t *testing.T) {
		at := 0
		for _, h := range []string{
			"## Table 1 ", "## Figure 8 ", "## Table 5 ", "## Table 2 ",
			"## Table 3 ", "## Table 6 ", "## Figure 10 ", "## Figure 9 ",
		} {
			i := strings.Index(out[at:], h)
			if i < 0 {
				t.Fatalf("section %q missing or out of order", h)
			}
			at += i + len(h)
		}
		if n := strings.Count(out, "\n## "); n != 8 {
			t.Errorf("%d sections, want 8", n)
		}
	})

	t.Run("table 3 results", func(t *testing.T) {
		_, sec, ok := strings.Cut(out, "## Table 3 ")
		parts := strings.SplitN(sec, "```", 3)
		if !ok || len(parts) < 3 {
			t.Fatal("no Table 3 block")
		}
		rows := strings.Split(strings.TrimSpace(parts[1]), "\n")[1:]
		if len(rows) != 13 {
			t.Fatalf("%d attack rows, want 13:\n%s", len(rows), parts[1])
		}
		for _, r := range rows {
			// Result is the third column, after two 36-rune ones.
			if f := strings.Fields(string([]rune(r)[74:])); len(f) == 0 || (f[0] != "OK" && f[0] != "BLOCKED") {
				t.Errorf("row does not read OK/BLOCKED: %q", r)
			}
		}
	})

	t.Run("table 2 runs", func(t *testing.T) {
		_, sec, _ := strings.Cut(out, "## Table 2 ")
		sec, _, _ = strings.Cut(sec, "## Table 3 ")
		if !strings.Contains(sec, "Figure 1, run: a same-platform report verifies; a cross-platform report is rejected\n") {
			t.Errorf("Table 2 lacks the Figure 1 local attestation line:\n%s", sec)
		}
		_, line, ok := strings.Cut(sec, "§4.4 multi-stage baseline (U200, Conv): ")
		var report, attested, window float64
		if _, err := fmt.Sscanf(line, "customer report at %f s, CL attested at %f s: a %f s exposure window", &report, &attested, &window); !ok || err != nil {
			t.Fatalf("Table 2 lacks the §4.4 multi-stage line (%v):\n%s", err, sec)
		}
		// The window spans the SM enclave's attestation and the whole CL
		// deployment, so it is most of the Figure 9 boot. Each figure is
		// rounded to 0.1 s, so the three agree to within 0.15 s.
		if report <= 0 || window < 10 || math.Abs(attested-report-window) > 0.151 {
			t.Errorf("multi-stage timeline: report %.1f s, CL attested %.1f s, window %.1f s", report, attested, window)
		}
	})

	// 19.1 s on an ordinary build: the size-charged segments are fixed, and
	// the race detector's slower enclave crypto adds ~0.1 s.
	_, fig9, _ := strings.Cut(out, "Modelled total: ")
	line, _, _ := strings.Cut(fig9, "\n")
	var total float64
	if _, err := fmt.Sscanf(line, "%f s", &total); err != nil || total < 19.0 || total > 19.3 {
		t.Errorf("Figure 9 modelled total %q, want 19.1 s", line)
	}
	for _, want := range []string{
		"Partial bitstream volume (fixed by the reserved partition, §6.3): 31 MiB",
		"HE = heterogeneous CPU-FPGA TEE, SA = standalone FPGA TEE",
		"(paper envelope: 1.17x – 15.64x)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
