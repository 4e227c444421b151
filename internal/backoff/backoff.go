// Package backoff is the repo's one implementation of exponential
// backoff with jitter. Every retry loop that paces itself against a
// remote party — mtatctl's run waiter, the fleet dispatcher's re-dispatch
// after a node failure, the fleet client's sweep waiter, the experiment
// runner's submission retry — shares this policy so retry storms stay
// de-synchronized fleet-wide.
package backoff

import (
	"context"
	"math/rand/v2"
	"time"
)

// Defaults applied by Policy.Delay for zero-valued fields.
const (
	DefaultBase   = 50 * time.Millisecond
	DefaultMax    = 5 * time.Second
	DefaultFactor = 2.0
	DefaultJitter = 0.2
)

// Policy describes an exponential backoff schedule: attempt n (0-based)
// waits Base·Factorⁿ, capped at Max, then randomized by ±Jitter·delay.
// The zero value is usable and selects the defaults above.
type Policy struct {
	// Base is the first delay (<= 0 selects DefaultBase).
	Base time.Duration
	// Max caps the grown delay before jitter (<= 0 selects DefaultMax).
	Max time.Duration
	// Factor is the per-attempt growth (<= 1 selects DefaultFactor).
	Factor float64
	// Jitter is the randomization fraction in [0, 1]: the returned delay
	// is uniform in [delay·(1-Jitter), delay·(1+Jitter)]. Negative
	// selects DefaultJitter; 0 disables jitter only when set explicitly
	// via NoJitter (the zero value selects the default, keeping zero
	// Policies safe against synchronized retries).
	Jitter float64
	// FullJitter replaces the bounded ±Jitter band with full jitter: the
	// returned delay is uniform in (0, delay]. Bounded jitter keeps many
	// clients within ±20% of the same instant, which is still a
	// synchronized storm when hundreds of tenants are rejected by the
	// same rate limiter in the same tick; full jitter spreads the whole
	// window. The fleet dispatcher turns this on.
	FullJitter bool
	// NoJitter disables randomization (for deterministic tests).
	NoJitter bool
}

// Delay returns the wait before retry attempt (0-based).
func (p Policy) Delay(attempt int) time.Duration {
	base, max, factor := p.Base, p.Max, p.Factor
	if base <= 0 {
		base = DefaultBase
	}
	if max <= 0 {
		max = DefaultMax
	}
	if factor <= 1 {
		factor = DefaultFactor
	}
	d := float64(base)
	for i := 0; i < attempt; i++ {
		d *= factor
		if d >= float64(max) {
			break
		}
	}
	if d > float64(max) {
		d = float64(max)
	}
	switch {
	case p.NoJitter:
	case p.FullJitter:
		d *= rand.Float64()
	default:
		jitter := p.Jitter
		if jitter < 0 || jitter == 0 {
			jitter = DefaultJitter
		}
		if jitter > 1 {
			jitter = 1
		}
		d *= 1 + jitter*(2*rand.Float64()-1)
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// Sleep waits Delay(attempt) or until ctx is done, returning ctx's error
// in the latter case.
func (p Policy) Sleep(ctx context.Context, attempt int) error {
	t := time.NewTimer(p.Delay(attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
