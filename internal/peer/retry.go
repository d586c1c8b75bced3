package peer

import (
	"context"
	"errors"
	"io"
	"net"

	"repro/internal/simnet"
)

// Retryable classifies a peer-call error as transient (a retry against the
// same or a replica endpoint may succeed) or terminal (retrying resends the
// same doomed request). The classification is shared by both transports:
//
//   - unreachable simulated nodes (simnet.ErrUnreachable), including
//     mid-stream death and flaky drops, are transient;
//   - network-level failures (net.Error: refused connections, resets,
//     transport timeouts) are transient;
//   - HTTP 5xx answers (StatusError) are transient, 4xx terminal;
//   - a deadline is transient (the next attempt gets a fresh per-attempt
//     budget) but cancellation is terminal — the caller gave up;
//   - truncated response bodies (io.EOF mid-decode) are transient;
//   - everything else — above all parse/evaluation errors for malformed
//     queries — is terminal: only known-transient failures are retried.
func Retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, simnet.ErrUnreachable) {
		return true
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)
}
