// Capped jittered exponential backoff, shared by the worker rejoin loop and
// the coordinator supervision loop. The jitter is drawn from the repo's own
// deterministic generator keyed by (Seed, attempt), so a schedule is a pure
// function of its configuration: unit tests can assert the exact delays, and
// two processes with different seeds still decorrelate their retries.
package core

import (
	"time"

	"celeste/internal/rng"
)

// Backoff computes retry delays: Base·2^attempt, capped at Max, then
// scaled by a deterministic jitter of ±Jitter. The zero value is usable and
// picks the defaults noted on each field.
type Backoff struct {
	// Base is the attempt-0 delay (default 100ms).
	Base time.Duration
	// Max caps the un-jittered delay (default 5s).
	Max time.Duration
	// Jitter is the ± fraction applied to each delay (default 0.2; capped
	// at 1). Set to a negative value for no jitter at all.
	Jitter float64
	// Seed keys the jitter stream. Two workers with different seeds retry
	// at decorrelated instants, so a restarted coordinator is not hit by a
	// synchronized thundering herd.
	Seed uint64
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 100 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 5 * time.Second
	}
	if b.Jitter == 0 {
		b.Jitter = 0.2
	}
	if b.Jitter < 0 {
		b.Jitter = 0
	}
	if b.Jitter > 1 {
		b.Jitter = 1
	}
	return b
}

// Delay returns the delay before retry number attempt (0-based). It is a
// pure function: the same (Backoff, attempt) always yields the same
// duration, which is what makes retry schedules reproducible under test.
func (b Backoff) Delay(attempt int) time.Duration {
	b = b.withDefaults()
	if attempt < 0 {
		attempt = 0
	}
	d := float64(b.Base)
	for i := 0; i < attempt && d < float64(b.Max); i++ {
		d *= 2
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.Jitter > 0 {
		// One draw per (seed, attempt): mixing the attempt into the seed
		// keeps Delay pure without threading generator state through callers.
		u := rng.New(b.Seed ^ (0x9e3779b97f4a7c15 * uint64(attempt+1))).Float64()
		d *= 1 + b.Jitter*(2*u-1)
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}
