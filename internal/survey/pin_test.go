//go:build amd64 && !amd64.v3

// The pins hold under the conditions of core's TestCatalogBytesPinned: amd64
// at the baseline levels (the compiler fuses no multiply-adds) on a CPU with
// FMA, where the standard library's math.Exp takes its FMA path.

package survey

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"celeste/internal/geom"
)

// The sha256 of pinnedSurvey's pixels and of the expected counts they were
// drawn from, each value as its little-endian float64 bits, image after
// image. A Poisson draw rarely moves when its mean moves by an ulp, so the
// pixel pin alone misses a renderer change that moves only low bits; the
// expected-count pin catches it. A change that moves either on purpose
// re-pins it and says so.
const (
	surveyPixelsSHA256   = "8be2db1e04af4ee187bb0b1c43421feb268d3a54ad27de5872d1235e4a1b99ea"
	surveyExpectedSHA256 = "b86346db26ded0e88ba9de458e317fd9933a00033627bbb169414e06277510c5"
)

// pinnedSurvey is two epochs of a small region with a deep strip, dense
// enough that stars and galaxies of every deV fraction overlap the field
// edges, sized the same with and without -short.
func pinnedSurvey() *Survey {
	cfg := DefaultConfig(17)
	cfg.Region = geom.NewBox(0, 0, 0.02, 0.02)
	cfg.DeepRegion = geom.NewBox(0, 0, 0.02, 0.008)
	cfg.FieldW, cfg.FieldH = 96, 80
	cfg.Runs = 1
	cfg.DeepRuns = 1
	cfg.SourceDensity = 60000
	return Generate(cfg)
}

func hashFloats(h hash.Hash, v []float64) {
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func TestSurveyBytesPinned(t *testing.T) {
	sv := pinnedSurvey()
	pix, lam := sha256.New(), sha256.New()
	for _, im := range sv.Images {
		hashFloats(pix, im.Pixels)
		expected := *im
		expected.Pixels = make([]float64, len(im.Pixels))
		sv.expectedCounts(&expected)
		hashFloats(lam, expected.Pixels)
	}
	for _, c := range []struct {
		what      string
		got, want string
	}{
		{"pixels", hex.EncodeToString(pix.Sum(nil)), surveyPixelsSHA256},
		{"expected counts", hex.EncodeToString(lam.Sum(nil)), surveyExpectedSHA256},
	} {
		if c.got != c.want {
			t.Errorf("survey %s moved: sha256 %s, pinned %s (%d images, %d sources)",
				c.what, c.got, c.want, len(sv.Images), len(sv.Truth))
		}
	}
}
