package main

import (
	"fmt"
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
		if len(rows) != 10 {
			t.Fatalf("%d attack rows, want 10:\n%s", len(rows), parts[1])
		}
		for _, r := range rows {
			// Result is the third column, after two 36-rune ones.
			if f := strings.Fields(string([]rune(r)[74:])); len(f) == 0 || (f[0] != "OK" && f[0] != "BLOCKED") {
				t.Errorf("row does not read OK/BLOCKED: %q", r)
			}
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
