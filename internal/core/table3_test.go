package core

import (
	"strings"
	"testing"
)

func TestRunTable3AllProtected(t *testing.T) {
	rows := RunTable3()
	if len(rows) != 13 {
		t.Fatalf("%d rows, want 13", len(rows))
	}
	for _, r := range rows {
		if !r.Protected {
			t.Errorf("%s: NOT protected: %s", r.Attack, r.Outcome)
		}
	}
	out := FormatTable3(rows)
	for _, want := range []string{"BLOCKED", "OK", "CL substitution", "readback", "replay", "MsgMemWrite", "MsgMemData", "dropped DMA write"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAILED") {
		t.Errorf("table reports failures:\n%s", out)
	}
}

func TestTable2Rendering(t *testing.T) {
	out := Table2()
	for _, want := range []string{"MRENCLAVE", "SipHash", "EGETKEY", "N+1", "attestation key"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}
