package survey

import (
	"math"
	"testing"

	"celeste/internal/geom"
	"celeste/internal/model"
	"celeste/internal/rng"
)

// smallConfig is the shared synthesis configuration. Under -short the region
// and epoch counts shrink (fewer pixels to render); the full sizes remain
// the default-mode assertion target. Tests derive probe points and boxes
// from the config so both modes exercise the same invariants.
func smallConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Region = geom.NewBox(0, 0, 0.04, 0.04)
	cfg.DeepRegion = geom.NewBox(0, 0, 0.04, 0.02)
	cfg.FieldW, cfg.FieldH = 128, 128
	cfg.Runs = 2
	cfg.DeepRuns = 4
	cfg.SourceDensity = 3000
	if testing.Short() {
		cfg.Region = geom.NewBox(0, 0, 0.02, 0.02)
		cfg.DeepRegion = geom.NewBox(0, 0, 0.02, 0.01)
		cfg.DeepRuns = 2
	}
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig(42))
	b := Generate(smallConfig(42))
	if len(a.Truth) != len(b.Truth) || len(a.Images) != len(b.Images) {
		t.Fatalf("sizes differ: %d/%d vs %d/%d",
			len(a.Truth), len(a.Images), len(b.Truth), len(b.Images))
	}
	for i := range a.Images {
		for j, v := range a.Images[i].Pixels {
			if b.Images[i].Pixels[j] != v {
				t.Fatalf("image %d pixel %d differs", i, j)
			}
		}
	}
	c := Generate(smallConfig(43))
	diff := false
	for i := range a.Images {
		if i < len(c.Images) {
			for j := range a.Images[i].Pixels {
				if a.Images[i].Pixels[j] != c.Images[i].Pixels[j] {
					diff = true
					break
				}
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical surveys")
	}
}

func TestCoverage(t *testing.T) {
	s := Generate(smallConfig(1))
	// Every point of the region must be covered by at least Runs images in
	// every band; the deep region by Runs + DeepRuns.
	cfg := s.Config
	probe := []geom.Pt2{
		// Shallow area: centered in RA, above the deep strip in Dec.
		{RA: cfg.Region.MinRA + 0.25*cfg.Region.Width(),
			Dec: (cfg.DeepRegion.MaxDec + cfg.Region.MaxDec) / 2},
		// Deep area: the deep strip's center.
		cfg.DeepRegion.Center(),
	}
	for pi, p := range probe {
		count := make(map[int]int) // band -> cover count
		for _, im := range s.Images {
			if im.Footprint().Contains(p) {
				count[im.Band]++
			}
		}
		wantMin := cfg.Runs
		if cfg.DeepRegion.Contains(p) {
			wantMin += cfg.DeepRuns
		}
		for b := 0; b < model.NumBands; b++ {
			if count[b] < wantMin {
				t.Errorf("probe %d band %d: covered by %d images, want >= %d",
					pi, b, count[b], wantMin)
			}
		}
	}
}

func TestImagesInBox(t *testing.T) {
	s := Generate(smallConfig(2))
	box := geom.NewBox(0.005, 0.005, 0.02, 0.02)
	imgs := s.ImagesInBox(box)
	if len(imgs) == 0 {
		t.Fatal("no images found in box")
	}
	for _, im := range imgs {
		if !im.Footprint().Intersects(box) {
			t.Errorf("image %d does not intersect box", im.ID)
		}
	}
	// Complement check: everything not returned must not intersect.
	returned := make(map[int]bool)
	for _, im := range imgs {
		returned[im.ID] = true
	}
	for _, im := range s.Images {
		if !returned[im.ID] && im.Footprint().Intersects(box) {
			t.Errorf("image %d intersects but was not returned", im.ID)
		}
	}
}

func TestPixelStatisticsMatchModel(t *testing.T) {
	// In a source-free synthetic image, pixel mean and variance both equal
	// the sky level (Poisson).
	cfg := smallConfig(3)
	cfg.SourceDensity = 0
	s := Generate(cfg)
	im := s.Images[0]
	var sum, sumsq float64
	n := float64(len(im.Pixels))
	for _, v := range im.Pixels {
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-im.Sky)/im.Sky > 0.02 {
		t.Errorf("pixel mean = %v, sky = %v", mean, im.Sky)
	}
	if math.Abs(variance-im.Sky)/im.Sky > 0.06 {
		t.Errorf("pixel variance = %v, sky = %v", variance, im.Sky)
	}
}

func TestBrightSourceVisible(t *testing.T) {
	cfg := smallConfig(4)
	cfg.SourceDensity = 0
	s := Generate(cfg)
	// Inject one bright star manually and re-render one image.
	e := model.CatalogEntry{
		ID:   0,
		Pos:  cfg.Region.Center(),
		Flux: [model.NumBands]float64{50, 50, 50, 50, 50},
	}
	s.Truth = append(s.Truth, e)
	im := s.Images[0]
	expected := make([]float64, len(im.Pixels))
	for i := range expected {
		expected[i] = im.Sky
	}
	model.AddExpectedCounts(expected, im.W, im.H, im.WCS, im.PSF, &e, im.Band, im.Iota, 5.5)
	px, py := im.WCS.WorldToPix(e.Pos)
	x, y := int(px), int(py)
	if x < 2 || y < 2 || x >= im.W-2 || y >= im.H-2 {
		t.Skip("source not on this frame")
	}
	if expected[y*im.W+x] < im.Sky*2 {
		t.Errorf("bright star barely above sky: %v vs %v", expected[y*im.W+x], im.Sky)
	}
}

func TestNoisyCatalogPerturbsButTracks(t *testing.T) {
	// Build the truth population directly (no image synthesis needed) so the
	// flip-rate statistics have a real sample size.
	cfg := smallConfig(5)
	s := &Survey{Config: cfg}
	r := rngForTest(5)
	for i := 0; i < 3000; i++ {
		pos := geom.Pt2{RA: r.Float64() * 0.04, Dec: r.Float64() * 0.04}
		s.Truth = append(s.Truth, cfg.Priors.Sample(r, i, pos))
	}
	noisy := s.NoisyCatalog(99)
	if len(noisy) != len(s.Truth) {
		t.Fatalf("lengths differ")
	}
	var posErr, typeFlips float64
	for i := range noisy {
		d := geom.Dist(noisy[i].Pos, s.Truth[i].Pos)
		posErr += d / s.Config.PixScale
		if noisy[i].IsGal() != s.Truth[i].IsGal() {
			typeFlips++
		}
	}
	n := float64(len(noisy))
	if posErr/n < 0.2 || posErr/n > 3 {
		t.Errorf("mean position error = %v px", posErr/n)
	}
	if typeFlips/n < 0.02 || typeFlips/n > 0.25 {
		t.Errorf("type flip rate = %v", typeFlips/n)
	}
}

func rngForTest(seed uint64) *rng.Source { return rng.New(seed) }
