package federation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/peer"
)

// Defaults of the fault-tolerance layer (see Options).
const (
	// DefaultMaxAttempts is the per-peer-call attempt budget when
	// RetryPolicy.MaxAttempts is zero.
	DefaultMaxAttempts = 3
	// DefaultBackoff is the delay before the second attempt (doubling per
	// retry, jittered ±50%) when RetryPolicy.Backoff is zero.
	DefaultBackoff = 2 * time.Millisecond
	// DefaultMaxBackoff caps the backoff growth when RetryPolicy.MaxBackoff
	// is zero.
	DefaultMaxBackoff = 50 * time.Millisecond
	// DefaultBreakerCooldown is how long an open circuit rejects calls
	// before admitting a half-open probe, when Options.BreakerCooldown is
	// zero.
	DefaultBreakerCooldown = 250 * time.Millisecond
	// DefaultHedgeDelay is the hedge delay for an endpoint with no observed
	// latency yet (once observed, the delay is 2× the endpoint's whole-call
	// EWMA).
	DefaultHedgeDelay = 10 * time.Millisecond
)

// RetryPolicy bounds the retry loop wrapped around every peer call —
// extension fetches and probe batches alike. Only transient failures (peer.Retryable: unreachable nodes,
// mid-stream death, transport errors, 5xx, deadlines) are retried; terminal
// errors such as malformed queries return immediately. Attempts after a
// failure prefer endpoints of the source's replica set not yet tried this
// call (failover), and consecutive attempts are separated by doubling,
// jittered backoff.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per logical call
	// (0 = DefaultMaxAttempts; 1 = fail on the first error, as the
	// pre-fault-tolerance mediator did).
	MaxAttempts int
	// Backoff is the initial inter-attempt delay (0 = DefaultBackoff).
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (0 = DefaultMaxBackoff).
	MaxBackoff time.Duration
	// AttemptTimeout, when > 0, bounds each individual attempt; an attempt
	// that exceeds it counts as a transient failure and the next attempt
	// gets a fresh budget. The query-wide deadline still comes from the
	// request context.
	AttemptTimeout time.Duration
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return p.MaxAttempts
}

func (p RetryPolicy) backoff() time.Duration {
	if p.Backoff <= 0 {
		return DefaultBackoff
	}
	return p.Backoff
}

func (p RetryPolicy) maxBackoff() time.Duration {
	if p.MaxBackoff <= 0 {
		return DefaultMaxBackoff
	}
	return p.MaxBackoff
}

// retryable is the mediator's transient/terminal split — peer.Retryable,
// plus the mediator's own fast-fail marker (a circuit-open group counts as
// transient for partial degradation even when the wrapped endpoint error is
// gone).
func retryable(err error) bool {
	return peer.Retryable(err) || errors.Is(err, ErrCircuitOpen)
}

// wrapAttempts is the mediator's per-source error envelope. One attempt
// keeps the historical shape ("federation: source X: …"); exhausted retries
// record the attempt count while preserving the %w chain, so callers can
// still classify with errors.Is (pinned by TestRetryErrorWrapsAttempts).
func wrapAttempts(src peer.Entry, attempts int, err error) error {
	if attempts <= 1 {
		return fmt.Errorf("federation: source %s: %w", src.Name, err)
	}
	return fmt.Errorf("federation: source %s: %d attempts: %w", src.Name, attempts, err)
}

// callRetry runs one logical peer call under the fetcher's retry policy:
// pick an endpoint from the source's replica set (skipping open circuits,
// preferring endpoints not yet tried), run the attempt (hedged when
// enabled), classify the outcome, and either return, fail over, or back
// off and retry. It is a package function because Go methods cannot carry
// type parameters.
func callRetry[T any](f *fetcher, ctx context.Context, src peer.Entry, do func(ctx context.Context, addr string) (T, error)) (T, error) {
	var zero T
	g := groupOf(src)
	max := f.policy.maxAttempts()
	backoff := f.policy.backoff()
	var lastErr error
	lastAddr := ""
	tried := make(map[string]bool, len(g.Endpoints))
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if lastErr == nil {
				return zero, cerr
			}
			return zero, wrapAttempts(src, attempt-1, lastErr)
		}
		addr, ok := f.eng.health.pick(g, tried)
		if !ok {
			// every endpoint's circuit is open: fail fast instead of
			// burning the attempt budget against known-down endpoints
			f.count(&f.m.BreakerFastFails, obsBreakerReject)
			return zero, wrapAttempts(src, attempt-1, f.eng.health.downError(g))
		}
		if lastAddr != "" && addr != lastAddr {
			f.count(&f.m.Failovers, obsFailovers)
		}
		lastAddr = addr
		res, err := attemptCall(f, ctx, g, addr, do)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !peer.Retryable(err) || attempt >= max || ctx.Err() != nil {
			if peer.Retryable(err) && attempt >= max {
				obsRetryExhausted.Inc()
			}
			return zero, wrapAttempts(src, attempt, lastErr)
		}
		f.count(&f.m.Retries, obsRetryAttempts)
		tried[addr] = true
		if len(tried) >= len(g.Endpoints) {
			// a full failover cycle failed; start over across the set
			clear(tried)
		}
		if !sleepBackoff(ctx, backoff) {
			return zero, wrapAttempts(src, attempt, lastErr)
		}
		backoff *= 2
		if cap := f.policy.maxBackoff(); backoff > cap {
			backoff = cap
		}
	}
}

// sleepBackoff waits for d jittered ±50% (full-jitter backoff decorrelates
// the retry storms of concurrent probes), interruptibly: false means the
// context ended first.
func sleepBackoff(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	j := d/2 + time.Duration(rand.Int63n(int64(d)))
	t := time.NewTimer(j)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// attemptCall runs one attempt against addr, optionally hedged: when
// hedging is on and the group has a second healthy endpoint, a duplicate
// attempt launches against it after the hedge delay (2× the primary's
// whole-call latency EWMA, DefaultHedgeDelay before any observation) and
// the first success wins; the loser's context is canceled. Whole-call
// latency and transient failures feed the health registry either way.
func attemptCall[T any](f *fetcher, ctx context.Context, g PeerGroup, addr string, do func(ctx context.Context, addr string) (T, error)) (T, error) {
	var zero T
	actx := ctx
	cancel := context.CancelFunc(func() {})
	if t := f.policy.AttemptTimeout; t > 0 {
		actx, cancel = context.WithTimeout(ctx, t)
	}
	defer cancel()
	if !f.hedge || len(g.Endpoints) < 2 {
		return observedCall(f, actx, addr, do)
	}

	type outcome struct {
		res T
		err error
		alt bool
	}
	hctx, hcancel := context.WithCancel(actx)
	defer hcancel()
	ch := make(chan outcome, 2) // buffered: the loser's send never blocks, no goroutine leaks
	launch := func(a string, alt bool) {
		go func() {
			r, err := observedCall(f, hctx, a, do)
			ch <- outcome{res: r, err: err, alt: alt}
		}()
	}
	launch(addr, false)
	timer := time.NewTimer(f.hedgeDelay(addr))
	defer timer.Stop()

	outstanding := 1
	var firstErr error
	for {
		select {
		case out := <-ch:
			outstanding--
			if out.err == nil {
				if out.alt {
					f.count(&f.m.HedgeWins, obsHedgeWins)
				}
				hcancel() // the loser is abandoned at the transport where possible
				return out.res, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if outstanding == 0 {
				// both attempts failed, or the primary failed before the
				// hedge fired — failover is the retry loop's job, not the
				// hedge timer's
				return zero, firstErr
			}
		case <-timer.C:
			alt, ok := f.eng.health.alternate(g, addr)
			if !ok {
				continue
			}
			f.count(&f.m.Hedges, obsHedgeLaunched)
			launch(alt, true)
			outstanding++
		}
	}
}

// hedgeDelay derives how long to wait for the primary before issuing the
// hedge: the configured override, or twice the primary's whole-call EWMA —
// a request that has already taken 2× its typical latency is likely stuck
// behind a slow or dying endpoint.
func (f *fetcher) hedgeDelay(addr string) time.Duration {
	if f.hedgeAfter > 0 {
		return f.hedgeAfter
	}
	if l := f.eng.health.latency(addr); l > 0 {
		return 2 * l
	}
	return DefaultHedgeDelay
}

// observedCall runs do once and feeds the health registry: whole-call
// latency on success, a transient-failure mark otherwise. Cancellation and
// terminal errors say nothing about endpoint health and are not recorded.
func observedCall[T any](f *fetcher, ctx context.Context, addr string, do func(ctx context.Context, addr string) (T, error)) (T, error) {
	start := time.Now()
	res, err := do(ctx, addr)
	if err == nil {
		f.eng.health.success(addr, time.Since(start))
	} else if peer.Retryable(err) && ctx.Err() == nil {
		f.eng.health.failure(addr, err)
	}
	return res, err
}
