package flops

import (
	"math"
	"testing"
)

func TestTotalMatchesMethodology(t *testing.T) {
	// One visit is 32,317 FLOPs scaled by 1.375 (Section VI-B).
	if got, want := Total(1), 32317*1.375; got != want {
		t.Errorf("Total(1) = %v, want %v", got, want)
	}
	if got := Total(0); got != 0 {
		t.Errorf("Total(0) = %v", got)
	}
}

func TestRates(t *testing.T) {
	visits := int64(1e9)
	fl := Total(visits)
	if got := Rate(visits, 10); math.Abs(got-fl/10) > 1 {
		t.Errorf("Rate = %v", got)
	}
	if got := Rate(visits, 0); got != 0 {
		t.Errorf("Rate with zero time = %v", got)
	}
}

func TestPaperScaleSanity(t *testing.T) {
	// The paper's peak: 1.54 PFLOP/s. At 32,317x1.375 FLOPs per visit that
	// is ~3.5e10 visits per second across the machine.
	perSec := 1.54e15 / (PerVisit * OutsideObjectiveFactor)
	if perSec < 3e10 || perSec > 4e10 {
		t.Errorf("implied visit rate = %v", perSec)
	}
}
