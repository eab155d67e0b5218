package smapp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"

	"salus/internal/bitman"
	"salus/internal/bitstream"
	"salus/internal/cryptoutil"
	"salus/internal/netlist"
	"salus/internal/shell"
	"salus/internal/smlogic"
)

// deployPaths are DeployCL's two paths: the digest joins inside the cache's
// build, or after sealing.
var deployPaths = []struct {
	name  string
	cache func() *PreparedCache
}{
	{"no cache", func() *PreparedCache { return nil }},
	{"prepared cache", NewPreparedCache},
}

// TestDigestMismatchWins: input that fails to parse and has the wrong
// digest is ErrDigest — the parse error of the manipulation that ran beside
// the digest never surfaces — and the shell sees no load.
func TestDigestMismatchWins(t *testing.T) {
	for _, path := range deployPaths {
		t.Run(path.name, func(t *testing.T) {
			h := newHarness(t, func(c *Config) { c.Prepared = path.cache() })
			h.prepare(t)
			if err := h.app.DeployCL([]byte("not a bitstream")); !errors.Is(err, ErrDigest) {
				t.Errorf("DeployCL(garbage) = %v, want ErrDigest", err)
			}
			if n := h.sh.Stats().Loads; n != 0 {
				t.Errorf("shell saw %d loads after a digest mismatch", n)
			}
		})
	}
}

// TestWrongDigestPublishesNothing: a build whose digest does not match
// leaves nothing in the cache, and the next boot with the right bytes
// builds afresh.
func TestWrongDigestPublishesNothing(t *testing.T) {
	cache := NewPreparedCache()
	h := newHarness(t, func(c *Config) { c.Prepared = cache })
	h.prepare(t)
	// One byte appended: the package still parses and takes its secrets,
	// and only the digest tells it apart.
	wrong := append(append([]byte(nil), h.encoded...), 0)
	if err := h.app.DeployCL(wrong); !errors.Is(err, ErrDigest) {
		t.Fatalf("DeployCL(wrong bytes) = %v, want ErrDigest", err)
	}
	if st := cache.Stats(); st.Manipulations != 0 || st.ManipulationHits != 0 || st.Encryptions != 0 {
		t.Errorf("wrong-digest build published: %+v", st)
	}
	if err := h.app.DeployCL(h.encoded); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Manipulations != 1 || st.ManipulationHits != 0 {
		t.Errorf("after the good boot: %+v, want 1 manipulation and no hit", st)
	}
	if err := h.app.AttestCL(); err != nil {
		t.Fatal(err)
	}
}

// TestDigestGoroutineEnds: the digest's goroutine is gone once DeployCL
// has returned ErrDigest.
func TestDigestGoroutineEnds(t *testing.T) {
	for _, path := range deployPaths {
		t.Run(path.name, func(t *testing.T) {
			h := newHarness(t, func(c *Config) { c.Prepared = path.cache() })
			h.prepare(t)
			wrong := append(append([]byte(nil), h.encoded...), 0)
			baseline := runtime.NumGoroutine()
			for i := 0; i < 8; i++ {
				if err := h.app.DeployCL(wrong); !errors.Is(err, ErrDigest) {
					t.Fatalf("DeployCL = %v, want ErrDigest", err)
				}
			}
			// A goroutine that has sent its digest may take a moment to exit.
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after 8 failed deploys, %d before", runtime.NumGoroutine(), baseline)
				}
			}
		})
	}
}

// TestFailedBuildDoesNotFailItsWaiters: two boards boot one CL through a
// shared cache, and the board that builds was served the wrong bytes. It
// gets ErrDigest; the board waiting on its build runs its own and boots.
func TestFailedBuildDoesNotFailItsWaiters(t *testing.T) {
	cache := NewPreparedCache()
	bad := newHarness(t, func(c *Config) { c.Prepared = cache })
	good := newHarness(t, func(c *Config) { c.Prepared = cache })
	good.encoded, good.digest, good.loc = bad.encoded, bad.digest, bad.loc
	bad.prepare(t)
	good.prepare(t)

	// The package with 32 MiB appended still parses, and its digest takes
	// long enough that the good board arrives while the build is in flight.
	wrong := append(append([]byte(nil), bad.encoded...), make([]byte, 32<<20)...)
	done := make(chan error, 1)
	go func() { done <- bad.app.DeployCL(wrong) }()
	var badErr error
	for finished := false; !finished; runtime.Gosched() {
		cache.manip.mu.Lock()
		inFlight := len(cache.manip.m) == 1
		cache.manip.mu.Unlock()
		select {
		case badErr = <-done:
			finished = true
		default:
			finished = inFlight
		}
	}
	goodErr := good.app.DeployCL(good.encoded)
	if badErr == nil {
		badErr = <-done
	}

	if err := badErr; !errors.Is(err, ErrDigest) {
		t.Errorf("board served the wrong bytes: %v, want ErrDigest", err)
	}
	if goodErr != nil {
		t.Fatalf("board served the right bytes: %v", goodErr)
	}
	if err := good.app.AttestCL(); err != nil {
		t.Fatal(err)
	}
	if n := bad.sh.Stats().Loads; n != 0 {
		t.Errorf("the failed board's shell saw %d loads", n)
	}
	if st := cache.Stats(); st.Manipulations != 1 || st.ManipulationHits != 0 {
		t.Errorf("cache stats %+v, want the good board's one manipulation", st)
	}
}

// TestDeviceLoadsTheSerializedImage: what the fabric decrypts is, byte for
// byte, the container the manipulation tool serialises from the package
// with the deployed secrets injected.
func TestDeviceLoadsTheSerializedImage(t *testing.T) {
	for _, profile := range []netlist.DeviceProfile{netlist.TestDevice, netlist.U200} {
		for _, path := range deployPaths {
			t.Run(profile.Name+"/"+path.name, func(t *testing.T) {
				rec := &shell.Recorder{}
				h := newHarnessOn(t, profile, func(c *Config) {
					c.Prepared = path.cache()
					c.Shell = shell.New(c.Shell.Device(), shell.WithInterceptor(rec))
				})
				h.deploy(t)
				loads := rec.Frames()
				if len(loads) != 1 {
					t.Fatalf("recorded %d loads", len(loads))
				}
				pt, err := bitstream.Decrypt(loads[0], h.app.deviceKey, profile.Name)
				if err != nil {
					t.Fatal(err)
				}

				tool, err := bitman.Open(h.encoded)
				if err != nil {
					t.Fatal(err)
				}
				if err := tool.Inject(h.loc, 0, deployedSecrets(h.app)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(pt, tool.Serialize()) {
					t.Error("the device's plaintext differs from the tool's serialisation")
				}
			})
		}
	}
}

// deployedSecrets is the secrets cell as DeployCL injected it.
func deployedSecrets(a *SMApp) []byte {
	var cell [smlogic.SecretsSize]byte
	copy(cell[smlogic.OffKeyAttest:], a.keyAttest)
	copy(cell[smlogic.OffKeySession:], a.keySession)
	binary.BigEndian.PutUint64(cell[smlogic.OffCtrSession:], a.ctr)
	return cell[:]
}

// TestSealingWipesTheFrames: without a cache the plaintext frames holding
// Key_attest and Key_session are zeroed once they are sealed; the secrets
// themselves stay for the board to take over, and the ciphertext carries
// them.
func TestSealingWipesTheFrames(t *testing.T) {
	h := newHarness(t)
	h.prepare(t)
	profile := h.sh.Device().Profile().Name
	cl, sealed, err := h.app.buildSealed(h.encoded, profile)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(cl.secrets, make([]byte, len(cl.secrets))) {
		t.Fatal("the secrets were wiped before the board took them over")
	}
	if cell, _ := cl.image.CellBytes(h.loc, 0, smlogic.SecretsSize); !bytes.Equal(cell, make([]byte, smlogic.SecretsSize)) {
		t.Errorf("the sealed image's secrets cell still reads % x", cell)
	}
	pt, err := bitstream.Decrypt(sealed, h.app.deviceKey, profile)
	if err != nil {
		t.Fatal(err)
	}
	im, err := bitstream.Decode(pt)
	if err != nil {
		t.Fatal(err)
	}
	if cell, _ := im.CellBytes(h.loc, 0, smlogic.SecretsSize); !bytes.Equal(cell, cl.secrets) {
		t.Error("the ciphertext does not carry the injected secrets")
	}
}

// TestFailedBuildWipesItsSecrets: a build whose digest does not match is
// zeroed — secrets and the frames holding them — before settle returns.
func TestFailedBuildWipesItsSecrets(t *testing.T) {
	h := newHarness(t)
	h.prepare(t)
	h.app.meta.Digest[0] ^= 1
	digest := h.app.startDigest(h.encoded)
	cl, err := manipulate(h.encoded, h.loc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.app.settle(digest, len(h.encoded), cl, nil); !errors.Is(err, ErrDigest) {
		t.Fatalf("settle = %v, want ErrDigest", err)
	}
	zero := make([]byte, smlogic.SecretsSize)
	if !bytes.Equal(cl.secrets, zero) {
		t.Errorf("secrets after a failed build: % x", cl.secrets)
	}
	if cell, _ := cl.image.CellBytes(h.loc, 0, smlogic.SecretsSize); !bytes.Equal(cell, zero) {
		t.Errorf("secrets cell after a failed build: % x", cell)
	}
	if cryptoutil.Digest(h.encoded) != h.digest {
		t.Error("wiping the build wrote into the package")
	}
}
