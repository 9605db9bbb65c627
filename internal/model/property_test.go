package model

import (
	"math"
	"testing"
	"testing/quick"

	"celeste/internal/geom"
	"celeste/internal/rng"
)

// TestTransformRoundTripProperty: FromConstrained∘Constrained is the
// identity on random valid parameter vectors.
func TestTransformRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed%9973 + 1)
		var c Constrained
		c.Pos = geom.Pt2{RA: r.Float64() * 360, Dec: r.Float64()*180 - 90}
		c.GalDevFrac = 0.02 + 0.96*r.Float64()
		c.GalAxisRatio = 0.02 + 0.96*r.Float64()
		c.GalAngle = r.Float64() * math.Pi * 0.999
		c.GalScale = math.Exp(r.NormalMV(-8, 1))
		c.ProbGal = 0.01 + 0.98*r.Float64()
		for tt := 0; tt < NumTypes; tt++ {
			c.R1[tt] = r.NormalMV(1, 2)
			c.R2[tt] = math.Exp(r.NormalMV(-1, 0.5))
			for i := 0; i < NumColors; i++ {
				c.C1[tt][i] = r.NormalMV(0.5, 1)
				c.C2[tt][i] = math.Exp(r.NormalMV(-2, 0.5))
			}
		}
		p := FromConstrained(c)
		got := p.Constrained()
		ok := func(a, b float64) bool {
			return math.Abs(a-b) <= 1e-8*(1+math.Abs(b))
		}
		if !ok(got.GalDevFrac, c.GalDevFrac) || !ok(got.GalAxisRatio, c.GalAxisRatio) ||
			!ok(got.GalAngle, c.GalAngle) || !ok(got.GalScale, c.GalScale) ||
			!ok(got.ProbGal, c.ProbGal) {
			return false
		}
		for tt := 0; tt < NumTypes; tt++ {
			if !ok(got.R1[tt], c.R1[tt]) || !ok(got.R2[tt], c.R2[tt]) {
				return false
			}
			for i := 0; i < NumColors; i++ {
				if !ok(got.C1[tt][i], c.C1[tt][i]) || !ok(got.C2[tt][i], c.C2[tt][i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFluxMomentsJensen: E[f]² <= E[f²] always (Jensen), strictly when the
// variance is positive.
func TestFluxMomentsJensen(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed%7919 + 1)
		r1 := r.NormalMV(1, 1.5)
		r2 := math.Exp(r.NormalMV(-1.5, 0.8))
		var c1, c2 [NumColors]float64
		for i := range c1 {
			c1[i] = r.NormalMV(0.4, 0.6)
			c2[i] = math.Exp(r.NormalMV(-2.5, 0.7))
		}
		m1, m2 := FluxMoments(r1, r2, c1, c2)
		for b := 0; b < NumBands; b++ {
			if m1[b] <= 0 || m2[b] <= m1[b]*m1[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestRenderedFluxConservation: total expected counts of any source on a
// large frame equal flux x iota regardless of shape parameters.
func TestRenderedFluxConservation(t *testing.T) {
	r := rng.New(88)
	w := geom.NewSimpleWCS(0, 0, 1.0/3600)
	for trial := 0; trial < 5; trial++ {
		e := CatalogEntry{
			Pos:          geom.Pt2{RA: 64 / 3600.0, Dec: 64 / 3600.0},
			ProbGal:      1,
			Flux:         [NumBands]float64{0, 0, 1 + 9*r.Float64(), 0, 0},
			GalDevFrac:   r.Float64(),
			GalAxisRatio: 0.2 + 0.7*r.Float64(),
			GalAngle:     r.Float64() * math.Pi,
			GalScale:     (0.5 + 2.5*r.Float64()) / 3600,
		}
		buf := make([]float64, 128*128)
		AddExpectedCounts(buf, 128, 128, w, testPSF(), &e, RefBand, 50, 6)
		var total float64
		for _, v := range buf {
			total += v
		}
		want := e.Flux[RefBand] * 50
		if math.Abs(total-want)/want > 0.05 {
			t.Errorf("trial %d: total %v, want %v (shape %+v)", trial, total, want, e)
		}
	}
}
