package vi

import (
	"math"
	"testing"

	"celeste/internal/elbo"
	"celeste/internal/model"
)

// meanFieldY is the optimum y − log(1 − 2·gy/w) of the likely type's
// log-variance at log-odds a.
func meanFieldY(a, y, gy float64) float64 {
	w := 1 - sigmoidTail(a) + elbo.KLWeightFloor
	return y - math.Log(1-2*gy/w)
}

// TestVarianceTail pins varianceTail case by case: every case in which a
// log-variance must stay at Newton's point, and the move to the mean-field
// optimum.
func TestVarianceTail(t *testing.T) {
	star, gal := -10.0, 10.0
	_, at := thresholdLogOdds(t)
	for _, tc := range []struct {
		name         string
		a, y, yN, gy float64
		want         float64
	}{
		{"undecided", -3, -2, -3, -50, -3},
		{"undecided galaxy", 3, -2, -3, -50, -3},
		{"Newton raises y", star, -2, -1.5, -50, -1.5},
		{"Newton stays", star, -2, -2, -50, -2},
		{"gradient 0", star, -2, -3, 0, -3},
		{"gradient positive", star, -2, -3, 5, -3},
		{"gradient NaN", star, -2, -3, math.NaN(), -3},
		{"gradient +Inf", star, -2, -3, math.Inf(1), -3},
		{"gradient -Inf", star, -2, -3, math.Inf(-1), -3},
		{"log-odds NaN", math.NaN(), -2, -3, -50, -3},
		{"y NaN", star, math.NaN(), -3, -50, -3},
		{"target above Newton's point", star, -2, -3, -0.5, -3},
		{"star moves", star, -2, -3, -50, meanFieldY(star, -2, -50)},
		{"galaxy moves", gal, -2, -3, -50, meanFieldY(gal, -2, -50)},
		{"at the threshold", -at, -2, -3, -50, meanFieldY(-at, -2, -50)},
		{"huge gradient", star, -2, -3, -1e300, meanFieldY(star, -2, -1e300)},
	} {
		got := varianceTail(tc.a, tc.y, tc.yN, tc.gy)
		if math.Abs(got-tc.want) > 1e-12*math.Abs(tc.want) {
			t.Errorf("%s: varianceTail(%g, %g, %g, %g) = %.15g, want %.15g", tc.name, tc.a, tc.y, tc.yN, tc.gy, got, tc.want)
		}
	}
	// At the optimum of gy = w/2 − C·e^y, the one-dimensional model's
	// gradient vanishes.
	a, y, gy := star, -2.0, -50.0
	w := 1 - sigmoidTail(a) + elbo.KLWeightFloor
	c := (w/2 - gy) * math.Exp(-y)
	if rest := w/2 - c*math.Exp(varianceTail(a, y, -3, gy)); math.Abs(rest) > 1e-12 {
		t.Errorf("model gradient %g at the moved trial, want 0", rest)
	}
}

// TestAdjustTrialVariances: on a decided source AdjustTrial moves the likely
// type's five log-variances that Newton lowers to varianceTail's target and
// leaves the unlikely type's and every other coordinate at Newton's point;
// on an undecided one nothing moves.
func TestAdjustTrialVariances(t *testing.T) {
	const iu = model.ParamTypeLogOdds
	variances := func(t int) []int {
		return []int{model.ParamR2 + t, model.ParamC2 + 4*t, model.ParamC2 + 4*t + 1, model.ParamC2 + 4*t + 2, model.ParamC2 + 4*t + 3}
	}
	var s Scratch
	for _, tc := range []struct {
		name   string
		a      float64 // the iterate's type log-odds
		likely int     // the type whose variances move, −1 for none
	}{
		{"decided star", -10 + 1e-4, 0},
		{"decided galaxy", 12 - 6e-6, 1},
		{"undecided", 0, -1},
	} {
		var x, g, trial model.Params
		for i := range x {
			x[i] = -2 + 0.01*float64(i)
			trial[i] = x[i] - 1 // Newton lowers everything
			g[i] = 50           // the negated ELBO's gradient: ∂ELBO/∂y = −50
		}
		x[iu] = tc.a / model.LogOddsScale
		trial[iu] = x[iu] // the type stays put
		g[iu] = 0
		newton := trial

		moved := s.AdjustTrial(x[:], g[:], trial[:])
		if moved != (tc.likely >= 0) {
			t.Fatalf("%s: AdjustTrial moved %v", tc.name, moved)
		}
		want := newton
		if tc.likely >= 0 {
			for _, i := range variances(tc.likely) {
				want[i] = varianceTail(x.TypeLogOdds(), x[i], newton[i], -g[i])
				if !(want[i] < newton[i]) {
					t.Fatalf("%s: variance %d has no move below Newton's %g", tc.name, i, newton[i])
				}
			}
		}
		for i := range trial {
			if math.Abs(trial[i]-want[i]) > 1e-12*math.Abs(want[i]) {
				t.Errorf("%s: coordinate %d at %.15g, want %.15g (Newton's %g)", tc.name, i, trial[i], want[i], newton[i])
			}
		}
	}
}

// FuzzVarianceTail: for any inputs, varianceTail returns a finite
// log-variance no higher than Newton's point, and Newton's point itself
// whenever a guard fails.
func FuzzVarianceTail(f *testing.F) {
	f.Add(-10.0, -2.0, -3.0, -50.0)
	f.Add(10.0, -2.0, -3.0, -0.5)
	f.Add(-3.0, -2.0, -3.0, -50.0)
	f.Add(-10.0, -2.0, -1.5, -50.0)
	f.Add(-800.0, 5.0, 4.0, -1e300)
	f.Add(10.0, -2.0, -3.0, 5.0)
	f.Fuzz(func(t *testing.T, a, y, yNewton, gy float64) {
		got := varianceTail(a, y, yNewton, gy)
		if math.Float64bits(got) == math.Float64bits(yNewton) {
			return
		}
		if !(typeVar(a) <= decrementTol && yNewton < y && gy < 0) {
			t.Fatalf("varianceTail(%g, %g, %g, %g) = %g moved past a failed guard", a, y, yNewton, gy, got)
		}
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("varianceTail(%g, %g, %g, %g) = %g, not finite", a, y, yNewton, gy, got)
		}
		if !(got < yNewton) {
			t.Fatalf("varianceTail(%g, %g, %g, %g) = %g lies above Newton's point", a, y, yNewton, gy, got)
		}
	})
}
