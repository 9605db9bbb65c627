package mathx

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

// expPlain is math.Exp's amd64 plain path (math/exp_amd64.s without FMA):
// expFMA with every fused multiply-add split into a rounded multiply and a
// rounded add. It is what math.Exp returns on amd64 without AVX and FMA3,
// or under GODEBUG=cpu.fma=off.
func expPlain(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2u     = 0.69314718055966295651160180568695068359375
		ln2l     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > overflow:
		return math.Inf(1)
	}
	k := cvtsd2sl(float64(log2e * x))
	fk := float64(k)
	r := float64(x - float64(fk*ln2u))
	r = float64(r - float64(fk*ln2l))
	r = float64(r * 0.0625)
	p := 2.4801587301587301587e-5
	for _, c := range [...]float64{
		1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1,
	} {
		p = float64(float64(p*r) + c)
	}
	r = float64(r * p)
	for range 4 {
		r = float64(r * float64(r+2))
	}
	r = float64(r + 1)
	e := int64(k) + 1023
	if e <= 0 {
		if e < -52 {
			return 0
		}
		r = float64(r * math.Float64frombits(uint64(e+1022)<<52))
		e = 1
	} else if e >= 0x7FF {
		return math.Inf(1)
	}
	return float64(r * math.Float64frombits(uint64(e)<<52))
}

// expSpecials are the arguments every bitwise check includes: signed zeros,
// infinities and NaNs, both sides of the first subnormal result (−708.39),
// of the last nonzero one (−745.13) and of overflow (709.78, and 709.436,
// past which the scalar ldexp overflows), the renderer's deepest argument
// −800, far out-of-range values and the probe arguments.
func expSpecials() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xFFF8000000000001), math.Float64frombits(0x7FF0000000000001),
		-800, 709.78, 709.79, 709.436, -1e300, 1e300, -math.MaxFloat64, math.MaxFloat64,
		5e-324, -5e-324, 1e-300, -2.3e-10, -1075 * math.Ln2, -1e10, 1e10,
	}
	for _, x := range []float64{-708.39, -745.13, -745.14, -708.3964185322641, -745.1332191019411, 709.782712893384, 709.4361393} {
		xs = append(xs, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
	}
	return append(xs, expProbe[:]...)
}

// checkExpInto runs ExpInto on v inside a guarded backing array and fails
// on the first element whose bits differ from math.Exp's, or on a write
// outside v.
func checkExpInto(t *testing.T, v []float64, off int) {
	t.Helper()
	const guard = 12345.678
	back := make([]float64, off+len(v)+1)
	for i := range back {
		back[i] = guard
	}
	copy(back[off:], v)
	ExpInto(back[off : off+len(v)])
	for i, x := range v {
		if got, want := math.Float64bits(back[off+i]), math.Float64bits(math.Exp(x)); got != want {
			t.Fatalf("len %d, offset %d: ExpInto(%v)[%d] = %#x, math.Exp = %#x", len(v), off, x, i, got, want)
		}
	}
	if back[0] != guard && off > 0 || back[len(back)-1] != guard {
		t.Fatalf("len %d, offset %d: ExpInto wrote outside its slice", len(v), off)
	}
}

func TestExpIntoBitwise(t *testing.T) {
	specials := expSpecials()
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 17; n++ {
		for off := 0; off <= 1; off++ {
			// Each special at each position among ordinary arguments,
			// so it falls in every lane of a group and in the tail.
			for _, sp := range specials {
				for pos := 0; pos < n; pos++ {
					v := make([]float64, n)
					for i := range v {
						v[i] = -800 * rng.Float64()
					}
					v[pos] = sp
					checkExpInto(t, v, off)
				}
			}
			// All specials, in rotation.
			v := make([]float64, n)
			for r := range specials {
				for i := range v {
					v[i] = specials[(r+i)%len(specials)]
				}
				checkExpInto(t, v, off)
			}
		}
	}
	// Long spans over the renderer's range, the subnormal band and the
	// whole finite range.
	for _, lim := range [][2]float64{{-800, 0}, {-746, -708}, {-760, 720}} {
		v := make([]float64, 1001)
		for i := range v {
			v[i] = lim[0] + (lim[1]-lim[0])*rng.Float64()
		}
		checkExpInto(t, v, 0)
		checkExpInto(t, v, 1)
	}
}

func FuzzExpIntoBitwise(f *testing.F) {
	f.Add(uint64(0), uint64(0x7FF8000000000000), uint64(0xFFF0000000000000), uint64(0xC086232BDD7ABCD2), uint8(7), false)
	f.Add(uint64(0xC087400000000000), uint64(0x40862E42FEFA39EF), uint64(1), uint64(0x8000000000000000), uint8(17), true)
	f.Add(uint64(0x3FF0000000000000), uint64(0xC0862C4E5E3C1F44), uint64(0xC08742A5E2D8A3F0), uint64(0x7FEFFFFFFFFFFFFF), uint8(12), false)
	f.Fuzz(func(t *testing.T, a, b, c, d uint64, n uint8, offset bool) {
		seeds := [4]uint64{a, b, c, d}
		v := make([]float64, int(n)%40)
		for i := range v {
			s := seeds[i%4]
			s = s<<(uint(i)%64) | s>>(64-uint(i)%64)
			if i%2 == 0 {
				v[i] = math.Float64frombits(s) // a raw bit pattern
			} else {
				v[i] = -800 * float64(s>>11) / (1 << 53) // an argument in [−800, 0]
			}
		}
		off := 0
		if offset {
			off = 1
		}
		checkExpInto(t, v, off)
	})
}

// TestExpKernelEngaged holds the probe to what it mirrors. The packed kernel
// is in use exactly when math.Exp returns the Go FMA reference's bits on
// the probe set; every probe argument tells the two amd64 paths apart; and
// on amd64 math.Exp runs one of the two over a broad sample, so a kernel
// left off while math runs its FMA path, or left on while it does not,
// fails here rather than falling back silently. Under GODEBUG=cpu.fma=off
// the test sees the fallback, and on a machine where the kernel is in use
// it reruns itself under that setting.
func TestExpKernelEngaged(t *testing.T) {
	for _, x := range expProbe {
		if math.Float64bits(expFMA(x)) == math.Float64bits(expPlain(x)) {
			t.Errorf("probe argument %v: both paths give %v", x, expFMA(x))
		}
	}
	probe := true
	for _, x := range expProbe {
		probe = probe && math.Float64bits(math.Exp(x)) == math.Float64bits(expFMA(x))
	}
	if want := haveExpQuads && probe; expPacked != want {
		t.Fatalf("packed kernel in use = %v, want %v (probe matches: %v)", expPacked, want, probe)
	}
	fmaOff := strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off")
	if fmaOff && expPacked {
		t.Fatal("packed kernel in use under GODEBUG=cpu.fma=off")
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	rng := rand.New(rand.NewSource(2))
	allFMA, allPlain := true, true
	for i := 0; i < 20000; i++ {
		x := -800 + 1510*rng.Float64()
		if i%2 == 1 {
			x = math.Float64frombits(rng.Uint64())
		}
		got := math.Float64bits(math.Exp(x))
		allFMA = allFMA && got == math.Float64bits(expFMA(x))
		allPlain = allPlain && got == math.Float64bits(expPlain(x))
	}
	if allFMA == allPlain {
		t.Fatalf("math.Exp matches the FMA reference: %v, the plain one: %v; want exactly one", allFMA, allPlain)
	}
	if expPacked != allFMA {
		t.Fatalf("packed kernel in use = %v, but math.Exp runs the FMA path: %v", expPacked, allFMA)
	}
	if fmaOff || !expPacked {
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestExpKernelEngaged$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestExpKernelEngaged") {
		t.Fatalf("under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}

// BenchmarkExpInto times ExpInto against a math.Exp loop over the
// renderer's argument range [−800, 0], in ns per element.
func BenchmarkExpInto(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]float64, 4096)
	for i := range src {
		src[i] = -800 * rng.Float64()
	}
	v := make([]float64, len(src))
	run := func(b *testing.B, f func([]float64)) {
		for b.Loop() {
			copy(v, src)
			f(v)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(v)), "ns/elem")
	}
	b.Run("ExpInto", func(b *testing.B) { run(b, ExpInto) })
	b.Run("math.Exp", func(b *testing.B) {
		run(b, func(v []float64) {
			for i, x := range v {
				v[i] = math.Exp(x)
			}
		})
	})
}
