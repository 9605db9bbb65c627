package imageio

import (
	"bytes"
	"testing"

	"celeste/internal/geom"
	"celeste/internal/mog"
	"celeste/internal/survey"
)

// fuzzFrame builds a small valid frame for the seed corpus.
func fuzzFrame() *survey.Image {
	im := &survey.Image{
		ID: 3, Run: 94, Field: 12, Band: 2,
		W: 8, H: 6,
		WCS: geom.WCS{
			RA0: 0.01, Dec0: 0.02, X0: 4, Y0: 3,
			CD11: 1.1e-4, CD22: 1.1e-4,
		},
		Iota: 100, Sky: 80,
		PSF: mog.Mixture{
			{Weight: 0.7, Sxx: 1.2, Syy: 1.2},
			{Weight: 0.3, MuX: 0.1, MuY: -0.1, Sxx: 4, Sxy: 0.2, Syy: 4},
		},
		Pixels: make([]float64, 48),
	}
	for i := range im.Pixels {
		im.Pixels[i] = 80 + float64(i%7)
	}
	return im
}

// FuzzReadFrame hardens the binary frame reader: arbitrary input may error,
// but must never panic, never allocate beyond the data actually supplied,
// and anything it accepts must be a finite, internally consistent frame
// that survives a write/read round trip.
func FuzzReadFrame(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteFrame(&valid, fuzzFrame()); err != nil {
		f.Fatal(err)
	}
	vb := valid.Bytes()
	f.Add(vb)
	f.Add(vb[:len(vb)/2])         // truncated body
	f.Add(vb[:9])                 // truncated header
	f.Add([]byte("CEL1"))         // magic only
	f.Add([]byte("FITS????????")) // wrong magic
	f.Add([]byte{})
	// Header with absurd dimensions and a tiny body.
	huge := append([]byte(nil), vb[:52]...)
	for i := 36; i < 52; i++ {
		huge[i] = 0x7f
	}
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if im.W <= 0 || im.H <= 0 || len(im.Pixels) != im.W*im.H {
			t.Fatalf("accepted frame with inconsistent geometry: %dx%d, %d pixels",
				im.W, im.H, len(im.Pixels))
		}
		for i, px := range im.Pixels {
			if !isFinite(px) {
				t.Fatalf("accepted non-finite pixel %d", i)
			}
		}
		if !isFinite(im.Iota) || !isFinite(im.Sky) {
			t.Fatal("accepted non-finite calibration")
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, im); err != nil {
			t.Fatalf("accepted frame failed to re-serialize: %v", err)
		}
		im2, err := ReadFrame(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if im2.W != im.W || im2.H != im.H || len(im2.PSF) != len(im.PSF) {
			t.Fatal("round trip changed frame geometry")
		}
	})
}

// FuzzReadCatalog hardens the JSON-lines catalog reader: arbitrary bytes
// must produce entries with finite fields or an error — never a panic and
// never a silently non-finite entry.
func FuzzReadCatalog(f *testing.F) {
	f.Add([]byte(`{"ID":1,"Pos":{"RA":0.01,"Dec":0.02},"ProbGal":0.3,"Flux":[1,2,3,4,5]}`))
	f.Add([]byte(`{"ID":1}` + "\n" + `{"ID":2,"GalScale":1e-4}`))
	f.Add([]byte(`{"ID":1,"ProbGal":NaN}`))
	f.Add([]byte(`{"ID":1,"Flux":[1e999,0,0,0,0]}`))
	f.Add([]byte(`{"ID":`))
	f.Add([]byte("not json at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeCatalog(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := range entries {
			if verr := validateEntry(&entries[i]); verr != nil {
				t.Fatalf("accepted entry %d with invalid fields: %v", i, verr)
			}
		}
	})
}

// FuzzReadCheckpoint hardens the checkpoint reader the same way: malformed
// headers, truncated shard data, and non-finite parameters must error
// before any unbounded allocation.
func FuzzReadCheckpoint(f *testing.F) {
	ck := testCheckpoint(3, 7)
	var valid bytes.Buffer
	if err := WriteCheckpoint(&valid, ck); err != nil {
		f.Fatal(err)
	}
	vb := valid.Bytes()
	f.Add(vb)
	f.Add(vb[:len(vb)/2])
	f.Add(vb[:5])
	f.Add([]byte("CELK2"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := ck.Validate(); err != nil {
			t.Fatalf("reader accepted an invalid checkpoint: %v", err)
		}
	})
}
