package pgas

import "testing"

// TestViewBatchedAccess: a rank-bound View's batched Get/Put must move the
// same bytes and account the same traffic as the equivalent sequence of
// element operations — the property that makes the in-memory and TCP
// runtimes interchangeable behind the Getter/Putter interfaces.
func TestViewBatchedAccess(t *testing.T) {
	const n, w, ranks = 10, 3, 3
	a := New(n, w, ranks)
	buf := make([]float64, w)
	for i := 0; i < n; i++ {
		for k := range buf {
			buf[k] = float64(i*10 + k)
		}
		a.Put(0, i, buf)
	}
	l0, r0 := a.Stats()

	v := a.View(1)
	idx := []int{9, 0, 4}
	got := make([]float64, len(idx)*w)
	if err := v.GetMulti(idx, got); err != nil {
		t.Fatal(err)
	}
	for k, i := range idx {
		for j := 0; j < w; j++ {
			if want := float64(i*10 + j); got[k*w+j] != want {
				t.Fatalf("GetMulti[%d][%d] = %v, want %v", k, j, got[k*w+j], want)
			}
		}
	}

	vals := make([]float64, len(idx)*w)
	for k := range vals {
		vals[k] = -float64(k)
	}
	if err := v.PutMulti(idx, vals); err != nil {
		t.Fatal(err)
	}
	for k, i := range idx {
		a.Get(1, i, buf)
		for j := 0; j < w; j++ {
			if buf[j] != vals[k*w+j] {
				t.Fatalf("element %d[%d] = %v after PutMulti, want %v", i, j, buf[j], vals[k*w+j])
			}
		}
	}

	// Accounting: each batched element access counts as one op, like the
	// loose calls would.
	l1, r1 := a.Stats()
	if ops := (l1 - l0) + (r1 - r0); ops != int64(2*len(idx)+len(idx)) {
		t.Errorf("batched access recorded %d ops, want %d", ops, 3*len(idx))
	}
}

// TestViewSizeMismatchPanics: mis-sized batch buffers are programming
// errors, caught like the element operations catch them.
func TestViewSizeMismatchPanics(t *testing.T) {
	a := New(4, 3, 2)
	v := a.View(0)
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("GetMulti", func() { v.GetMulti([]int{0}, make([]float64, 2)) })
	expectPanic("PutMulti", func() { v.PutMulti([]int{0}, make([]float64, 2)) })
}
