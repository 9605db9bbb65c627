package core

import (
	"testing"
	"time"
)

// TestBackoffSchedule pins the shape of the default schedule: exponential
// growth from Base, capped at Max, jittered within ±Jitter, and never zero.
func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.2, Seed: 7}
	for attempt := 0; attempt < 12; attempt++ {
		d := b.Delay(attempt)
		raw := float64(b.Base)
		for i := 0; i < attempt && raw < float64(b.Max); i++ {
			raw *= 2
		}
		if raw > float64(b.Max) {
			raw = float64(b.Max)
		}
		lo := time.Duration(raw * 0.8)
		hi := time.Duration(raw * 1.2)
		if d < lo || d > hi {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d, lo, hi)
		}
	}
	// Past the cap the un-jittered delay stops growing.
	if base := 2 * time.Second; b.Delay(20) > time.Duration(float64(base)*1.2) {
		t.Errorf("attempt 20: delay %v exceeds the jittered cap", b.Delay(20))
	}
}

// TestBackoffDeterministic: Delay is a pure function — identical configs give
// identical schedules, and different seeds decorrelate them.
func TestBackoffDeterministic(t *testing.T) {
	a := Backoff{Base: 50 * time.Millisecond, Max: time.Second, Seed: 1}
	b := Backoff{Base: 50 * time.Millisecond, Max: time.Second, Seed: 1}
	c := Backoff{Base: 50 * time.Millisecond, Max: time.Second, Seed: 2}
	same, diff := true, false
	for i := 0; i < 8; i++ {
		if a.Delay(i) != b.Delay(i) {
			same = false
		}
		if a.Delay(i) != c.Delay(i) {
			diff = true
		}
	}
	if !same {
		t.Error("identical configs produced different schedules")
	}
	if !diff {
		t.Error("different seeds produced an identical schedule")
	}
}

// TestBackoffDefaults: the zero value is usable, grows, and respects the 5s
// default cap.
func TestBackoffDefaults(t *testing.T) {
	var b Backoff
	if d := b.Delay(0); d < 80*time.Millisecond || d > 120*time.Millisecond {
		t.Errorf("zero-value attempt 0 delay %v, want ~100ms", d)
	}
	if d := b.Delay(30); d > 6*time.Second {
		t.Errorf("zero-value attempt 30 delay %v, want capped near 5s", d)
	}
	if b.Delay(3) <= b.Delay(0) {
		t.Error("zero-value schedule does not grow")
	}
	// Negative jitter disables jitter entirely: delays are exact.
	exact := Backoff{Base: 10 * time.Millisecond, Max: time.Second, Jitter: -1}
	if d := exact.Delay(2); d != 40*time.Millisecond {
		t.Errorf("jitter-free attempt 2 delay %v, want 40ms", d)
	}
}

// TestRejoinBackoffSeededByPid: RunWorker keys a zero Seed by the process
// id, so two workers with the same options draw different jitter at every
// early attempt, while an explicit Seed and a jitter-free schedule are left
// as they were.
func TestRejoinBackoffSeededByPid(t *testing.T) {
	var zero Backoff
	a, b := pidSeeded(zero, 4101), pidSeeded(zero, 4102)
	for attempt := 0; attempt <= 3; attempt++ {
		if a.Delay(attempt) == b.Delay(attempt) {
			t.Errorf("attempt %d: pids 4101 and 4102 both wait %v", attempt, a.Delay(attempt))
		}
	}
	if got := pidSeeded(Backoff{Seed: 9}, 4101); got.Seed != 9 {
		t.Errorf("explicit seed 9 replaced by %d", got.Seed)
	}
	exact := Backoff{Base: 10 * time.Millisecond, Max: time.Second, Jitter: -1}
	for attempt := 0; attempt <= 3; attempt++ {
		want := exact.Delay(attempt)
		for _, pid := range []int{4101, 4102} {
			if got := pidSeeded(exact, pid).Delay(attempt); got != want {
				t.Errorf("jitter-free attempt %d, pid %d: %v, want %v", attempt, pid, got, want)
			}
		}
	}
}
