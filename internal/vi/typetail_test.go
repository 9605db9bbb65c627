package vi

import (
	"math"
	"testing"

	"celeste/internal/model"
)

// sigmoidTail is σ(−|a|), the unlikely type's probability at log-odds a.
func sigmoidTail(a float64) float64 { return 1 / (1 + math.Exp(math.Abs(a))) }

// decidedVar is q(1−q) at log-odds a.
func decidedVar(a float64) float64 {
	q := sigmoidTail(a)
	return q * (1 - q)
}

// tailCap is the log-odds on a's side where σ(−|x|)·|dq| = decrementTol/100.
func tailCap(a, dq float64) float64 {
	c := decrementTol / 100 / math.Abs(dq)
	return math.Copysign(math.Log((1-c)/c), a)
}

// TestTypeTail pins typeTail case by case: every case in which the type must
// stay at Newton's point, and the two targets a move can land on.
func TestTypeTail(t *testing.T) {
	star, gal := -10.0, 10.0 // decided: q(1−q) ≈ 4.5e-5
	for _, tc := range []struct {
		name           string
		a, aNewton, ga float64
		want           float64
	}{
		{"undecided", -3, -4, decidedVar(-3) * -30, -4},
		{"at the threshold", -6.5, -7.5, decidedVar(-6.5) * -30, -7.5},
		{"Newton moves back", star, star + 0.5, decidedVar(star) * -30, star + 0.5},
		{"Newton stays", star, star, decidedVar(star) * -30, star},
		{"gradient NaN", star, star - 1, math.NaN(), star - 1},
		{"gradient +Inf", star, star - 1, math.Inf(1), star - 1},
		{"gradient -Inf", star, star - 1, math.Inf(-1), star - 1},
		{"gradient 0", star, star - 1, 0, star - 1},
		{"star saturated", -800, -801, -1e-300, -801},
		{"galaxy saturated", 800, 801, 1e-300, 801},
		{"log-odds NaN", math.NaN(), -11, -1, -11},
		{"data pulls back", star, star - 1, decidedVar(star) * 5, star - 1},
		{"mean field short of Newton", star, star - 1, decidedVar(star) * -0.5, star - 1},
		{"gain left already below the cap", -20, -21, decidedVar(-20) * -30, -21},
		{"mean field inside the cap", star, star - 1, decidedVar(star) * -2, star - 2},
		{"galaxy mean field inside the cap", gal, gal + 1, decidedVar(gal) * 2, gal + 2},
		{"star cap binds", star, star - 1, decidedVar(star) * -30, tailCap(star, -30)},
		{"galaxy cap binds", gal, gal + 1, decidedVar(gal) * 30, tailCap(gal, 30)},
	} {
		got := typeTail(tc.a, tc.aNewton, tc.ga)
		if math.Abs(got-tc.want) > 1e-12*math.Abs(tc.want) {
			t.Errorf("%s: typeTail(%g, %g, %g) = %.15g, want %.15g", tc.name, tc.a, tc.aNewton, tc.ga, got, tc.want)
		}
	}
	// Where the cap binds, the type gain left at the trial is the cap's.
	got := typeTail(star, star-1, decidedVar(star)*-30)
	if left := sigmoidTail(got) * 30; math.Abs(left-decrementTol/100) > 1e-9*decrementTol {
		t.Errorf("type gain left at the capped trial %g is %g, want %g", got, left, decrementTol/100)
	}
}

// TestAdjustTrial: a decided type's trial moves its log-odds to typeTail's
// target and keeps every other coordinate; an undecided one is left
// untouched. The vector stores u = a/√2, and ∂ELBO/∂u = √2·∂ELBO/∂a.
func TestAdjustTrial(t *testing.T) {
	const iu, k = model.ParamTypeLogOdds, model.LogOddsScale
	var s Scratch
	for _, tc := range []struct {
		name  string
		a     float64 // the iterate's type log-odds
		dq    float64 // ∂ELBO/∂q at the iterate
		moves bool
	}{
		{"decided star", -10 + 1e-4, -30, true},
		{"decided galaxy", 12 - 6e-6, 30, true},
		{"undecided", 0, -30, false},
	} {
		var x, g, trial model.Params
		for i := range x {
			x[i] = 0.1 * float64(i)
			trial[i] = x[i] + 0.01
			g[i] = 1
		}
		x[iu] = tc.a / k
		side := math.Copysign(1, tc.a)
		trial[iu] = (tc.a + side) / k
		ga := decidedVar(tc.a) * tc.dq
		g[iu] = -k * ga // the negated ELBO's gradient
		newton := trial

		moved := s.AdjustTrial(x[:], g[:], trial[:])
		if moved != tc.moves {
			t.Fatalf("%s: AdjustTrial moved %v, want %v", tc.name, moved, tc.moves)
		}
		want := typeTail(tc.a, k*((tc.a+side)/k), ga)
		if got := k * trial[iu]; math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("%s: trial log-odds %.15g, want %.15g", tc.name, got, want)
		}
		for i := range trial {
			if i != iu && trial[i] != newton[i] {
				t.Errorf("%s: coordinate %d moved from %g to %g", tc.name, i, newton[i], trial[i])
			}
		}
		if !tc.moves && trial != newton {
			t.Errorf("%s: trial changed without a move", tc.name)
		}
	}
}

// FuzzTypeTail: for any inputs, typeTail either returns Newton's log-odds
// unchanged or a finite log-odds that moves the same way as Newton's step,
// lies beyond Newton's point and not past the cap, on a decided type.
func FuzzTypeTail(f *testing.F) {
	f.Add(-10.0, -11.0, decidedVar(-10)*-30)
	f.Add(10.0, 11.0, decidedVar(10)*2)
	f.Add(-3.0, -4.0, -1.0)
	f.Add(-20.0, -21.0, decidedVar(-20)*-30)
	f.Add(-700.0, -701.0, -1e-290)
	f.Add(8.0, 9.5, 1e300)
	f.Fuzz(func(t *testing.T, a, aNewton, ga float64) {
		got := typeTail(a, aNewton, ga)
		if math.Float64bits(got) == math.Float64bits(aNewton) {
			return
		}
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("typeTail(%g, %g, %g) = %g, not finite", a, aNewton, ga, got)
		}
		if v := decidedVar(a); !(v > 0 && v <= decrementTol) {
			t.Fatalf("typeTail(%g, %g, %g) = %g moved a type with q(1−q) = %g", a, aNewton, ga, got, v)
		}
		side := math.Copysign(1, a)
		if !(side*(aNewton-a) > 0) || !(side*(got-a) > 0) {
			t.Fatalf("typeTail(%g, %g, %g) = %g: the move and Newton's step head different ways", a, aNewton, ga, got)
		}
		if !(side*got > side*aNewton) {
			t.Fatalf("typeTail(%g, %g, %g) = %g is not beyond Newton's point", a, aNewton, ga, got)
		}
		if lim := tailCap(a, ga/decidedVar(a)); !(side*got <= side*lim*(1+1e-12)) {
			t.Fatalf("typeTail(%g, %g, %g) = %g lies past the cap %g", a, aNewton, ga, got, lim)
		}
	})
}
