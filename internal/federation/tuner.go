package federation

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Bounds and cadence of the probe-target tuner.
const (
	// tunerInitialTarget seeds the controller with the old fixed target.
	tunerInitialTarget = 25 * time.Millisecond
	// tunerMinTarget / tunerMaxTarget clamp the hill climb: below ~5ms a
	// probe is all round trip, above ~200ms probes serialise behind slow
	// peers instead of overlapping in the in-flight window.
	tunerMinTarget = 5 * time.Millisecond
	tunerMaxTarget = 200 * time.Millisecond
	// tunerStep is how far one adjustment moves the target.
	tunerStep = 5 * time.Millisecond
	// tunerWindow is how many probe observations make one measurement
	// epoch; the controller adjusts once per epoch.
	tunerWindow = 16
)

var obsProbeTarget = obs.Default.Gauge("federation_probe_target_ms", "Adaptive probe service-time target chosen by the throughput tuner (ms)")

// probeTuner learns the adaptive probe service-time target by
// hill climbing on observed probe throughput, replacing the old fixed
// 25ms constant. Every probe round trip reports (bindings, duration);
// once a window of observations accumulates, the controller compares the
// window's throughput (bindings per second of probe service time) with
// the previous window's: an improvement keeps the current direction of
// travel, a regression reverses it, and the target moves one step —
// clamped to [tunerMinTarget, tunerMaxTarget]. The engine owns one tuner
// for its lifetime, so what one query's probes learn about the peer set
// prices the next query's batches.
type probeTuner struct {
	mu     sync.Mutex
	target time.Duration
	dir    time.Duration // +tunerStep or -tunerStep

	// current epoch accumulation
	count    int
	bindings int64
	elapsed  time.Duration

	prevRate float64 // previous epoch's throughput (bindings/sec), 0 before one completes
}

func newProbeTuner() *probeTuner {
	return &probeTuner{target: tunerInitialTarget, dir: +tunerStep}
}

// targetNow returns the current probe service-time target.
func (t *probeTuner) targetNow() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.target
}

// observe folds one probe round trip (how many bindings it carried, how
// long it took) into the current epoch, adjusting the target when the
// epoch completes.
func (t *probeTuner) observe(bindings int, d time.Duration) {
	if bindings <= 0 || d <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count++
	t.bindings += int64(bindings)
	t.elapsed += d
	if t.count < tunerWindow {
		return
	}
	rate := float64(t.bindings) / t.elapsed.Seconds()
	t.count, t.bindings, t.elapsed = 0, 0, 0
	if t.prevRate > 0 && rate < t.prevRate {
		t.dir = -t.dir // the last move hurt throughput: walk back
	}
	t.prevRate = rate
	t.target += t.dir
	if t.target < tunerMinTarget {
		t.target = tunerMinTarget
		t.dir = +tunerStep
	}
	if t.target > tunerMaxTarget {
		t.target = tunerMaxTarget
		t.dir = -tunerStep
	}
	obsProbeTarget.Set(int64(t.target / time.Millisecond))
}
