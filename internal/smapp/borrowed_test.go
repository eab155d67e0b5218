package smapp

import (
	"bytes"
	"runtime"
	"testing"

	"salus/internal/bitstream"
	"salus/internal/cryptoutil"
	"salus/internal/simtime"
	"salus/internal/smlogic"
	"salus/internal/trace"
)

// TestSharedPackageIsNeverWritten boots three boards from one developer
// package — the same slice, as a fleet shares CLPackage.Encoded — and checks
// that manipulation, which now parses the package in place, wrote the RoT
// only into its own output: the package still hashes to H, holds neither
// injected key anywhere, and its secrets cell still reads all-zero.
func TestSharedPackageIsNeverWritten(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cache *PreparedCache
	}{{"no cache", nil}, {"prepared cache", NewPreparedCache()}} {
		t.Run(tc.name, func(t *testing.T) {
			first := newHarness(t)
			shared, digest, loc := first.encoded, first.digest, first.loc
			for board := 0; board < 3; board++ {
				h := newHarness(t, func(c *Config) { c.Prepared = tc.cache })
				h.encoded = shared
				h.deploy(t)
				for name, key := range map[string][]byte{"Key_attest": h.app.keyAttest, "Key_session": h.app.keySession} {
					if len(key) == 0 || bytes.Contains(shared, key) {
						t.Fatalf("board %d: %s (%d bytes) occurs in the shared package", board, name, len(key))
					}
				}
				// The board really runs on those secrets.
				if err := h.app.AttestCL(); err != nil {
					t.Fatalf("board %d: %v", board, err)
				}
			}
			if tc.cache != nil {
				if st := tc.cache.Stats(); st.Manipulations != 1 || st.ManipulationHits != 2 {
					t.Errorf("cache stats %+v, want 1 manipulation and 2 hits", st)
				}
			}
			if cryptoutil.Digest(shared) != digest {
				t.Error("shared package no longer hashes to H")
			}
			im, err := bitstream.Decode(shared)
			if err != nil {
				t.Fatal(err)
			}
			cell, err := im.CellBytes(loc, 0, smlogic.SecretsSize)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cell, make([]byte, smlogic.SecretsSize)) {
				t.Errorf("RoT cell of the shared package reads %x, want all-zero", cell)
			}
		})
	}
}

// TestDeployCLAllocBudget is the tier-1 tripwire for the bitstream passes:
// under the calibrated slowdowns and with no cache, one DeployCL including
// the shell load may allocate the two image-sized buffers that each have an
// owner (the manipulated image, encoded straight into its sealed container,
// and the fabric's decrypted plaintext) and a quarter image of everything
// else — and records each bitstream step exactly once. The runtime rounds a
// large allocation up to whole 8 KiB pages, so the budget grants each of the
// two buffers its page. The accelerator's DRAM is allocated on first touch,
// so a load costs none of it. Measured at this profile's 136 KiB image:
// 301–307 KB, 2.16 images (four images, a page each, and 16 MiB of DRAM were
// granted before).
func TestDeployCLAllocBudget(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.EnclaveSlowdown, c.ToolSlowdown = 16, 440 })
	h.prepare(t)
	log := h.app.cfg.Trace
	before := map[trace.Phase]int{}
	for _, p := range []trace.Phase{trace.PhaseBitVerifyEnc, trace.PhaseBitManipulation, trace.PhaseCLDeployment} {
		before[p] = log.Count(p)
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := h.app.DeployCL(h.encoded); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)

	got := m1.TotalAlloc - m0.TotalAlloc
	const page = 8 << 10
	budget := uint64(2.25*float64(len(h.encoded))) + 2*page
	t.Logf("DeployCL allocated %d bytes for a %d-byte image (budget %d)", got, len(h.encoded), budget)
	if got > budget {
		t.Errorf("DeployCL allocated %d bytes, budget 2.25 x %d + 2 pages = %d", got, len(h.encoded), budget)
	}
	// Digest and encryption share a phase; manipulation and the load have
	// their own.
	for p, want := range map[trace.Phase]int{trace.PhaseBitVerifyEnc: 2, trace.PhaseBitManipulation: 1, trace.PhaseCLDeployment: 1} {
		if n := log.Count(p) - before[p]; n != want {
			t.Errorf("%s recorded %d times in one DeployCL, want %d", p, n, want)
		}
	}
}

// TestPreparedCacheHitIsNotCharged: size-charging keeps the cache's
// accounting — only the builder pays for digest and manipulation; a board
// served from the cache is charged its own encryption and nothing else.
func TestPreparedCacheHitIsNotCharged(t *testing.T) {
	cache := NewPreparedCache()
	calibrated := func(c *Config) { c.EnclaveSlowdown, c.ToolSlowdown, c.Prepared = 16, 440, cache }
	builder := newHarness(t, calibrated)
	builder.deploy(t)
	if builder.app.cfg.Trace.PhaseTotal(trace.PhaseBitManipulation) == 0 {
		t.Fatal("the builder was not charged for manipulation")
	}

	hit := newHarness(t, calibrated)
	hit.encoded = builder.encoded
	hit.deploy(t)
	log := hit.app.cfg.Trace
	if n := log.Count(trace.PhaseBitManipulation); n != 0 {
		t.Errorf("cache hit recorded %d manipulations (%v)", n, log.PhaseTotal(trace.PhaseBitManipulation))
	}
	want := simtime.SizeCost(float64(len(hit.encoded)), simtime.GCMBytesPerSec, 16)
	if got := log.PhaseTotal(trace.PhaseBitVerifyEnc); got != want {
		t.Errorf("cache hit charged %v of verify + encrypt, want its encryption's %v", got, want)
	}
}
