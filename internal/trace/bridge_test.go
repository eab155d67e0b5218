package trace

import (
	"testing"
	"time"

	"salus/internal/metrics"
)

func TestFeedHistograms(t *testing.T) {
	l := New()
	l.Record(PhaseCLDeployment, 3*time.Millisecond)
	l.Record(PhaseCLDeployment, 5*time.Millisecond)
	l.Record(PhaseCLAuth, 40*time.Microsecond)

	reg := metrics.NewRegistry()
	FeedHistograms(reg, l, "salus_boot_")

	dep := reg.Histogram("salus_boot_cl_deployment_seconds").Snapshot()
	if dep.Count != 2 || dep.Sum != 8*time.Millisecond {
		t.Fatalf("cl_deployment histogram = count %d sum %v, want 2 / 8ms", dep.Count, dep.Sum)
	}
	auth := reg.Histogram("salus_boot_cl_authentication_seconds").Snapshot()
	if auth.Count != 1 || auth.Sum != 40*time.Microsecond {
		t.Fatalf("cl_auth histogram = count %d sum %v", auth.Count, auth.Sum)
	}
}
