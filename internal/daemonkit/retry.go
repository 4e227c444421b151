package daemonkit

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// DefaultMaxOutage is Retry's outage budget when MaxOutage <= 0 —
// generous enough to ride out a daemon SIGKILL, journal replay, and
// restart.
const DefaultMaxOutage = 2 * time.Minute

// Retry is the one rule every daemon client applies to a failed call:
// is it worth retrying, and for how long. It pairs a classifier with an
// outage clock that Check keeps across one caller's attempts:
//
//   - success resets the clock;
//   - 429 is backpressure from a live daemon: it resets the clock too,
//     and the next sleep stretches to the response's Retry-After;
//   - any other answer below 500 except 408 is final and comes back
//     unchanged — a 404 means the thing is gone, and retrying cannot
//     fix a 400, 401 or 403;
//   - transport errors, 408 and 5xx start or extend the outage; past
//     MaxOutage the call fails as unreachable.
//
// The zero value is ready to use with DefaultMaxOutage. WaitDurable,
// the experiment harness's submissions and mtatctl watch's reconnects
// all retry under it; the fleet dispatcher does not (it re-places a
// failed cell on another node instead of waiting one node out).
type Retry struct {
	// MaxOutage bounds consecutive unreachability (<= 0 selects
	// DefaultMaxOutage).
	MaxOutage time.Duration

	outageStart time.Time
}

// Check classifies one call's error (nil on success). A nil final
// means retry, sleeping at least wait (the server's Retry-After, 0 when
// it sent none); a non-nil final ends the caller's loop: the call's own
// error for a definitive answer, ctx's error once ctx is done, or an
// "unreachable" error wrapping err once the outage outlasts MaxOutage.
func (r *Retry) Check(ctx context.Context, err error) (wait time.Duration, final error) {
	if err == nil {
		r.outageStart = time.Time{}
		return 0, nil
	}
	if ctx.Err() != nil {
		return 0, ctx.Err()
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch code := apiErr.StatusCode; {
		case code == http.StatusTooManyRequests:
			r.outageStart = time.Time{}
			return apiErr.RetryAfter, nil
		case code != http.StatusRequestTimeout && code < 500:
			return 0, err
		}
	}
	budget := r.MaxOutage
	if budget <= 0 {
		budget = DefaultMaxOutage
	}
	switch {
	case r.outageStart.IsZero():
		r.outageStart = time.Now()
	case time.Since(r.outageStart) > budget:
		return 0, fmt.Errorf("daemon unreachable for %s: %w", budget, err)
	}
	return 0, nil
}
