package trace

import "salus/internal/metrics"

// Bridge from the per-boot phase traces (this package) to the fleet-wide
// aggregate metrics (internal/metrics), so an operator reading
// `salus-client top` and an engineer reading a Figure-9 trace see the same
// numbers.

// FeedHistograms observes every sample of the log into a per-phase
// histogram of reg named prefix + sanitized phase + "_seconds"
// (e.g. prefix "salus_fleet_boot_" and phase "CL Deployment" feed
// "salus_fleet_boot_cl_deployment_seconds"). The fleet manager calls this
// once per adopted member, so aggregate boot-phase histograms track the
// merged fleet trace sample for sample.
func FeedHistograms(reg *metrics.Registry, l *Log, prefix string) {
	for _, s := range l.Samples() {
		reg.Histogram(prefix + metrics.SanitizeName(string(s.Phase)) + "_seconds").Observe(s.D)
	}
}
