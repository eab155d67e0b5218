package remote

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"salus/internal/metrics"
	"salus/internal/sched"
)

// Gateway admission metrics.
var (
	mRateLimited = metrics.Default().Counter("salus_remote_rate_limited_total")
	mGatewayShed = metrics.Default().Counter("salus_remote_gateway_shed_total")
)

// Admission rejections are application-level verdicts: the session never
// retries them (the transport is fine), the caller backs off or upgrades
// its class.
var (
	// ErrRateLimited means the tenant exhausted its token bucket.
	ErrRateLimited = errors.New("remote: tenant rate limit exceeded")
	// ErrGatewayOverloaded means the gateway's recent p99 job latency is
	// past the configured ceiling and non-critical work is being shed.
	ErrGatewayOverloaded = errors.New("remote: gateway overloaded")
)

// AdmissionConfig tunes the gateway's admission screen. The gateway is
// where multi-tenant capacity isolation lives: the scheduler below it
// sees classes, not tenants, so per-tenant fairness has to be enforced
// before work reaches a queue.
type AdmissionConfig struct {
	// TenantRate is the sustained jobs/second each tenant may submit;
	// zero or negative disables rate limiting.
	TenantRate float64
	// TenantBurst is the token-bucket depth (instantaneous burst);
	// defaults to TenantRate when zero.
	TenantBurst float64
	// MaxP99 is the p99 end-to-end latency, over the last latencyWindow of
	// the gateway's own jobs, above which non-critical work is shed with
	// ErrGatewayOverloaded; zero or negative disables the cost-aware
	// screen. ClassCritical is exempt — the top band is the one whose
	// latency the shed exists to protect.
	MaxP99 time.Duration
}

// p99CacheTTL bounds how often Admit re-reads the latency window; merging
// its sub-histograms is cheap but not per-request cheap.
const p99CacheTTL = 250 * time.Millisecond

// The latency window is latencySlots sub-histograms of latencySlot each:
// the p99 screen sees between latencySlots-1 and latencySlots slots of the
// most recent jobs, so a burst of slow ones stops shedding within one
// latencyWindow of its end.
const (
	latencySlots  = 4
	latencySlot   = time.Second
	latencyWindow = latencySlots * latencySlot
)

// Admission screens gateway job requests with per-tenant token buckets
// and a cost-aware overload shed driven by the p99 latency of the jobs its
// gateway served recently. Safe for concurrent use by the RPC handler
// goroutines.
type Admission struct {
	cfg AdmissionConfig
	// now is the clock seam for tests; the latency window rotates on it.
	now func() time.Time
	// window is the gateway's recent job latency; nil until Serve binds
	// the admission, and an unbound admission never sheds on p99.
	window *latencyRing

	mu      sync.Mutex
	buckets map[string]*tokenBucket
	swept   int // len(buckets) after the last sweep
	cached  time.Duration
	readAt  time.Time
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// NewAdmission builds an admission screen. Its p99 shed reads the job
// latency of the gateway that Serve binds it to.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.TenantBurst <= 0 {
		cfg.TenantBurst = cfg.TenantRate
	}
	return &Admission{
		cfg:     cfg,
		now:     time.Now,
		buckets: make(map[string]*tokenBucket),
	}
}

// bind gives a p99-screening admission its latency window; Serve calls it
// before the gateway takes its first job.
func (a *Admission) bind() {
	if a != nil && a.cfg.MaxP99 > 0 && a.window == nil {
		a.window = newLatencyRing(a.now())
	}
}

// observe records n jobs of a bound admission's gateway that took d from
// submission to resolution.
func (a *Admission) observe(d time.Duration, n int) {
	if a == nil || a.window == nil {
		return
	}
	h := a.window.slots[a.window.cur.Load()]
	for range n {
		h.Observe(d)
	}
}

// Admit screens one request of the given class costing cost jobs.
// Returns nil to admit, ErrRateLimited or ErrGatewayOverloaded to
// reject. Admitted cost is debited from the tenant's bucket.
//
// The tenant string arrives before anything authenticates the request, so
// the bucket map must not keep one entry per name ever sent: a bucket that
// has refilled to TenantBurst admits exactly what a missing one would, and
// each time the map has doubled since its last sweep, such buckets are
// dropped (amortised O(1) per new tenant).
func (a *Admission) Admit(tenant string, class sched.Class, cost int) error {
	if cost <= 0 {
		cost = 1
	}
	a.mu.Lock()
	now := a.now()
	if a.cfg.TenantRate > 0 {
		b, ok := a.buckets[tenant]
		if !ok {
			if len(a.buckets) >= 2*a.swept {
				a.sweep(now)
			}
			b = &tokenBucket{tokens: a.cfg.TenantBurst, last: now}
			a.buckets[tenant] = b
		}
		b.tokens = a.refilled(b, now)
		b.last = now
		if b.tokens < float64(cost) {
			a.mu.Unlock()
			mRateLimited.Add(uint64(cost))
			return ErrRateLimited
		}
		b.tokens -= float64(cost)
	}
	overloaded := false
	if a.window != nil && class < sched.ClassCritical {
		if now.Sub(a.readAt) > p99CacheTTL {
			a.cached = a.window.p99(now)
			a.readAt = now
		}
		overloaded = a.cached > a.cfg.MaxP99
	}
	a.mu.Unlock()
	if overloaded {
		mGatewayShed.Add(uint64(cost))
		return ErrGatewayOverloaded
	}
	return nil
}

// refilled is b's token count at now, capped at TenantBurst. Caller holds
// a.mu.
func (a *Admission) refilled(b *tokenBucket, now time.Time) float64 {
	return min(b.tokens+now.Sub(b.last).Seconds()*a.cfg.TenantRate, a.cfg.TenantBurst)
}

// sweep drops every bucket that has refilled to TenantBurst. Caller holds
// a.mu.
func (a *Admission) sweep(now time.Time) {
	for tenant, b := range a.buckets {
		if a.refilled(b, now) >= a.cfg.TenantBurst {
			delete(a.buckets, tenant)
		}
	}
	a.swept = len(a.buckets)
}

// latencyRing is a ring of sub-histograms, each covering one latencySlot
// of the admission's clock. Jobs record into the current slot without a
// lock; p99, under the admission's lock, first rotates past every slot the
// clock has left, clearing each, and then merges the ring.
type latencyRing struct {
	slots [latencySlots]*metrics.Histogram
	cur   atomic.Int64 // the slot jobs record into
	epoch int64        // the clock's slot count at the last rotation
}

func newLatencyRing(now time.Time) *latencyRing {
	w := &latencyRing{epoch: now.UnixNano() / int64(latencySlot)}
	reg := metrics.NewRegistry()
	for i := range w.slots {
		w.slots[i] = reg.Histogram(strconv.Itoa(i))
	}
	return w
}

// p99 is the window's p99 job latency at now. Caller holds Admission.mu.
func (w *latencyRing) p99(now time.Time) time.Duration {
	if epoch := now.UnixNano() / int64(latencySlot); epoch > w.epoch {
		cur := w.cur.Load()
		for range min(epoch-w.epoch, latencySlots) {
			cur = (cur + 1) % latencySlots
			w.slots[cur].Reset()
		}
		w.cur.Store(cur)
		w.epoch = epoch
	}
	return metrics.Merge(w.slots[:]...).P99
}

// GatewayOption configures Serve.
type GatewayOption func(*gatewayOptions)

type gatewayOptions struct {
	admission *Admission
}

// WithAdmission screens every Cluster.RunJob/RunBatch through adm before
// it reaches the scheduler.
func WithAdmission(adm *Admission) GatewayOption {
	return func(o *gatewayOptions) { o.admission = adm }
}
