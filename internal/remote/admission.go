package remote

import (
	"errors"
	"sync"
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
	// ErrGatewayOverloaded means the pool's live p99 job latency is past
	// the configured ceiling and non-critical work is being shed.
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
	// MaxP99 is the live p99 end-to-end job latency above which
	// non-critical work is shed with ErrGatewayOverloaded; zero or
	// negative disables the cost-aware screen. ClassCritical is exempt —
	// the top band is the one whose latency the shed exists to protect.
	MaxP99 time.Duration
}

// p99CacheTTL bounds how often Admit re-reads the latency histogram; the
// snapshot walks 27 buckets, which is cheap but not per-request cheap.
const p99CacheTTL = 250 * time.Millisecond

// Admission screens gateway job requests with per-tenant token buckets
// and a cost-aware overload shed driven by the metrics registry's live
// p99 job latency. Safe for concurrent use by the RPC handler goroutines.
type Admission struct {
	cfg AdmissionConfig
	// p99 and now are seams for tests; NewAdmission wires them to the
	// process registry and wall clock.
	p99 func() time.Duration
	now func() time.Time

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

// NewAdmission builds an admission screen reading the live
// salus_sched_job_seconds p99 from the default metrics registry.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.TenantBurst <= 0 {
		cfg.TenantBurst = cfg.TenantRate
	}
	h := metrics.Default().Histogram("salus_sched_job_seconds")
	return &Admission{
		cfg:     cfg,
		p99:     func() time.Duration { return h.Snapshot().P99 },
		now:     time.Now,
		buckets: make(map[string]*tokenBucket),
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
	if a.cfg.MaxP99 > 0 && class < sched.ClassCritical {
		if now.Sub(a.readAt) > p99CacheTTL {
			a.cached = a.p99()
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
