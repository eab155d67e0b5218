package smapp

import (
	"crypto/ecdh"
	"crypto/sha256"
	"sync"

	"salus/internal/bitstream"
	"salus/internal/metrics"
	"salus/internal/netlist"
	"salus/internal/sgx"
)

// Fleet-wide mirrors of the cache/pool stats, so `salus-client top` can
// report boot-amortisation hit rates without polling every cache.
var (
	mManip       = metrics.Default().Counter("salus_smapp_manip_total")
	mManipHits   = metrics.Default().Counter("salus_smapp_manip_hits_total")
	mEnc         = metrics.Default().Counter("salus_smapp_enc_total")
	mEncHits     = metrics.Default().Counter("salus_smapp_enc_hits_total")
	mQuoteGen    = metrics.Default().Counter("salus_smapp_quote_generated_total")
	mQuoteReused = metrics.Default().Counter("salus_smapp_quote_reused_total")
	mRekeys      = metrics.Default().Counter("salus_session_rekeys_total")
)

// Fleet-boot amortisation (ISSUE 4, after AgEncID's fleet bitstream keying).
//
// Figure 9 shows CL boot time dominated by work that is byte-identical for
// every board deploying the same CL: bitstream verification, manipulation
// (RapidWright-under-Occlum), and the SM enclave's quote exchange. A fleet
// booting K boards with one CL can pay each of those once:
//
//   - PreparedCache memoises the manipulated image per (digest, Loc) and
//     the encrypted ciphertext per (digest, device key, profile). Sharing the
//     manipulation result means sharing the injected Key_attest/Key_session —
//     sound only inside one SM-enclave trust domain (all consumers run the
//     identical measured SM image and the secrets never leave enclaves), and
//     only because every sharing SMApp rotates its session epoch right after
//     CL attestation (see AttestCL), so no two boards ever serve traffic
//     under the same live session key. Key_attest remains fleet-shared for
//     the CL's lifetime.
//   - QuotePool reuses one quote + ephemeral ECDH key across SM enclaves of
//     the same measurement under one authority: the manufacturer verifies
//     identical quote bytes, so only the first fetch pays quote generation
//     and the verifier's DCAP round.
//
// Both are optional: a nil cache/pool in Config preserves the exact
// single-device behaviour.

// preparedCL is one manipulation result: the RoT-injected image and the
// secrets that were injected into it. The image is the developer's package
// — borrowed, read-only — with the secrets cell's frames patched over it, so
// holding it costs those frames, not a copy of the container.
type preparedCL struct {
	image *bitstream.Image
	// secrets is the injected cell (smlogic layout); keyAttest and
	// keySession are views of it.
	secrets    []byte
	keyAttest  []byte
	keySession []byte
	ctrInit    uint64
}

// wipe zeroes the secrets and the image frames that hold them. A nil cl is
// a no-op.
func (cl *preparedCL) wipe() {
	if cl != nil {
		clear(cl.secrets)
		cl.image.Wipe()
	}
}

// manipKey identifies a manipulation: the CL digest pins the input bytes,
// the location pins where the secrets cell was injected. (Digest alone is
// not enough — metadata with the right digest but a wrong Loc must not be
// satisfied by a cache entry built at the correct one.)
type manipKey struct {
	digest [32]byte
	loc    string
}

// encKey identifies an encryption: same manipulated CL, same device key,
// same device profile framing.
type encKey struct {
	digest  [32]byte
	device  [32]byte // sha256 fingerprint of Key_device, never the key itself
	profile string
}

// flight is one single-flighted build; ready is closed once v and err are
// set.
type flight[V any] struct {
	ready chan struct{}
	v     V
	err   error
}

// memo runs each key's build once and shares its result. Concurrent calls
// for a key wait for the one build in flight. A failed build is evicted, and
// a caller that waited on it runs its own: the failure belonged to the
// builder's input — one board served a wrong bitstream — and must not fail
// every board booting the same CL beside it.
type memo[K comparable, V any] struct {
	mu          sync.Mutex
	m           map[K]*flight[V]
	built, hits int
	mBuilt      *metrics.Counter
	mHits       *metrics.Counter
}

func newMemo[K comparable, V any](built, hits *metrics.Counter) *memo[K, V] {
	return &memo[K, V]{m: make(map[K]*flight[V]), mBuilt: built, mHits: hits}
}

// get returns key's value, building it if no build has succeeded or is in
// flight. The bool reports a shared result.
func (c *memo[K, V]) get(key K, build func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	for {
		e, ok := c.m[key]
		if !ok {
			break
		}
		c.mu.Unlock()
		<-e.ready
		c.mu.Lock()
		if e.err == nil {
			c.hits++
			c.mu.Unlock()
			c.mHits.Inc()
			return e.v, true, nil
		}
	}
	e := &flight[V]{ready: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()

	e.v, e.err = build()
	c.mu.Lock()
	if e.err != nil {
		// Evicting before waking the waiters keeps them from finding it
		// again.
		delete(c.m, key)
	} else {
		c.built++
		c.mBuilt.Inc()
	}
	c.mu.Unlock()
	close(e.ready)
	return e.v, false, e.err
}

// counts returns the successful builds and the shared results so far.
func (c *memo[K, V]) counts() (built, hits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.built, c.hits
}

// PreparedStats counts cache activity; tests and benchmarks use it to prove
// the expensive pipeline ran once.
type PreparedStats struct {
	Manipulations    int // cold builds that ran the manipulation toolchain
	ManipulationHits int // boots served a memoised manipulation
	Encryptions      int // cold per-(device,CL) encryptions
	EncryptionHits   int // boots served a memoised ciphertext
}

// PreparedCache memoises the manipulate and encrypt stages of DeployCL
// across a fleet. Safe for concurrent use; concurrent cold boots of the
// same CL are single-flighted so the toolchain runs once and latecomers
// block until the builder finishes.
type PreparedCache struct {
	manip *memo[manipKey, *preparedCL]
	enc   *memo[encKey, []byte]
}

// NewPreparedCache returns an empty cache.
func NewPreparedCache() *PreparedCache {
	return &PreparedCache{
		manip: newMemo[manipKey, *preparedCL](mManip, mManipHits),
		enc:   newMemo[encKey, []byte](mEnc, mEncHits),
	}
}

// Stats returns a snapshot of the cache counters.
func (c *PreparedCache) Stats() PreparedStats {
	var st PreparedStats
	st.Manipulations, st.ManipulationHits = c.manip.counts()
	st.Encryptions, st.EncryptionHits = c.enc.counts()
	return st
}

// manipulated returns the memoised manipulation for (digest, loc), running
// build once per key. The bool reports whether the result came from the
// cache (secrets shared with other boards).
func (c *PreparedCache) manipulated(digest [32]byte, loc netlist.Location, build func() (*preparedCL, error)) (*preparedCL, bool, error) {
	return c.manip.get(manipKey{digest: digest, loc: loc.Path}, build)
}

// encrypted is the per-board stage: memoise the ciphertext per (digest,
// device key, profile) so a reboot of the same board skips even the
// encryption pass.
func (c *PreparedCache) encrypted(digest [32]byte, deviceKey []byte, profile string, build func() ([]byte, error)) ([]byte, bool, error) {
	return c.enc.get(encKey{digest: digest, device: sha256.Sum256(deviceKey), profile: profile}, build)
}

// QuoteStats counts quote-pool activity.
type QuoteStats struct {
	Generated int // quote exchanges actually performed
	Reused    int // fetches served the pooled quote
}

// pooledQuote is the exchange a QuotePool shares: the quote and the
// ephemeral ECDH key it binds.
type pooledQuote struct {
	priv  *ecdh.PrivateKey
	quote sgx.Quote
}

// QuotePool shares one SM-enclave quote and its bound ephemeral ECDH key
// across a fleet of SM enclaves with the same measurement under the same
// manufacturer. The key-distribution response is sealed to the quoted
// public key, so the pooled private key is what lets every pool member open
// its own per-DNA key response — all members run the identical measured SM
// image, so the key never leaves the shared trust domain.
type QuotePool struct {
	pool *memo[struct{}, pooledQuote]
}

// NewQuotePool returns an empty pool.
func NewQuotePool() *QuotePool {
	return &QuotePool{pool: newMemo[struct{}, pooledQuote](mQuoteGen, mQuoteReused)}
}

// Stats returns a snapshot of the pool counters.
func (p *QuotePool) Stats() QuoteStats {
	generated, reused := p.pool.counts()
	return QuoteStats{Generated: generated, Reused: reused}
}

// get returns the pooled (priv, quote), running gen once while the pool is
// warm. The bool reports reuse.
func (p *QuotePool) get(gen func() (*ecdh.PrivateKey, sgx.Quote, error)) (*ecdh.PrivateKey, sgx.Quote, bool, error) {
	q, reused, err := p.pool.get(struct{}{}, func() (pooledQuote, error) {
		priv, quote, err := gen()
		return pooledQuote{priv, quote}, err
	})
	return q.priv, q.quote, reused, err
}
