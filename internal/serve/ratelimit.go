package serve

import (
	"sync"
	"time"

	"watchdog/internal/stats"
)

// Per-tenant admission control: a token bucket (sustained rate with a
// burst allowance) plus a daily request quota. Buckets are strictly
// per tenant — one tenant saturating its bucket can never consume
// another tenant's tokens — and every verdict carries an honest
// Retry-After: the bucket's actual refill time, or the time until the
// quota's UTC day rolls over.

// limitVerdict is one admission decision.
type limitVerdict struct {
	ok         bool
	reason     string        // "rate" or "quota" when !ok
	retryAfter time.Duration // >0 when !ok
}

// tenantState is one tenant's limiter slot and counters.
type tenantState struct {
	bucket *stats.TokenBucket // nil when rate limiting is off

	day         int64 // UTC day ordinal of the current quota window
	used        int64 // admitted requests in the current window
	requests    int64 // all admission attempts, ever
	limited     int64 // bucket refusals
	quotaDenied int64 // quota refusals
}

// tenantLimiter holds every tenant's bucket and quota window. The
// zero rate disables the bucket, the zero quota disables the daily
// cap; with both zero the limiter still counts per-tenant requests so
// /metrics has tenant rows. Safe for concurrent use.
type tenantLimiter struct {
	rate  float64
	quota int64
	now   func() time.Time

	mu      sync.Mutex
	tenants map[string]*tenantState
}

// newTenantLimiter sizes the limiter: rate tokens/second (0 = no rate
// limit) with a burst capacity of twice the rate (floored at 1 token),
// quota requests/day (0 = no quota).
func newTenantLimiter(rate float64, quota int64) *tenantLimiter {
	return &tenantLimiter{
		rate:    rate,
		quota:   quota,
		now:     time.Now,
		tenants: make(map[string]*tenantState),
	}
}

// state returns (creating if needed) one tenant's slot. Caller holds mu.
func (l *tenantLimiter) state(tenant string) *tenantState {
	st, ok := l.tenants[tenant]
	if !ok {
		st = &tenantState{}
		if l.rate > 0 {
			st.bucket = stats.NewTokenBucket(l.rate, 2*l.rate)
			st.bucket.SetClock(l.now)
		}
		l.tenants[tenant] = st
	}
	return st
}

// allow decides one request's admission for a tenant, updating the
// tenant's counters either way. Quota is checked before the bucket so
// an exhausted tenant's hammering cannot also drain its bucket
// pointlessly; quota consumption counts only admitted requests.
func (l *tenantLimiter) allow(tenant string) limitVerdict {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.state(tenant)
	st.requests++
	now := l.now().UTC()
	if l.quota > 0 {
		day := now.Unix() / 86400
		if st.day != day {
			st.day, st.used = day, 0
		}
		if st.used >= l.quota {
			st.quotaDenied++
			rollover := time.Unix((day+1)*86400, 0).UTC()
			return limitVerdict{reason: "quota", retryAfter: rollover.Sub(now)}
		}
	}
	if st.bucket != nil {
		if ok, retry := st.bucket.Take(); !ok {
			st.limited++
			return limitVerdict{reason: "rate", retryAfter: retry}
		}
	}
	if l.quota > 0 {
		st.used++
	}
	return limitVerdict{ok: true}
}

// TenantMetrics is one tenant's row in the /metrics document.
type TenantMetrics struct {
	// Requests counts every /v1/* admission attempt by this tenant,
	// including refused ones.
	Requests int64 `json:"requests" prom:"watchdog_serve_tenant_requests_total,counter" help:"Admission attempts on /v1/* endpoints, by tenant (refusals included)."`
	// Limited counts token-bucket refusals; QuotaDenied counts daily
	// quota refusals (both answered 429).
	Limited     int64 `json:"limited,omitempty" prom:"watchdog_serve_tenant_limited_total,counter" help:"Token-bucket refusals (429), by tenant."`
	QuotaDenied int64 `json:"quota_denied,omitempty" prom:"watchdog_serve_tenant_quota_denied_total,counter" help:"Daily-quota refusals (429), by tenant."`
	// QuotaUsed / QuotaRemaining describe the current UTC-day window;
	// both omitted when the server runs without a quota. They stay
	// JSON-only: a gauge cannot be omitted the way the JSON field is.
	QuotaUsed      int64 `json:"quota_used,omitempty"`
	QuotaRemaining int64 `json:"quota_remaining,omitempty"`
}

// snapshot reports every tenant's counters, keyed by tenant name.
func (l *tenantLimiter) snapshot() map[string]TenantMetrics {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.tenants) == 0 {
		return nil
	}
	out := make(map[string]TenantMetrics, len(l.tenants))
	day := l.now().UTC().Unix() / 86400
	for name, st := range l.tenants {
		m := TenantMetrics{
			Requests:    st.requests,
			Limited:     st.limited,
			QuotaDenied: st.quotaDenied,
		}
		if l.quota > 0 {
			if st.day == day {
				m.QuotaUsed = st.used
			}
			m.QuotaRemaining = l.quota - m.QuotaUsed
		}
		out[name] = m
	}
	return out
}

// retrySeconds rounds a Retry-After duration up to whole seconds with
// a floor of 1 (the header's unit; zero would invite an instant
// retry).
func retrySeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}
