//go:build !amd64

package mog

// galLanes is the lane pass of sweepGalGrad (see rowgrad.go) over the pixels
// of one component's active span: dxs, erow and gv start at the span's first
// pixel, and gG at that pixel of gradient lane 0, with lane k at offset k*w.
// t is the component's galaxy table. On amd64 the pass is SSE2 assembly
// (rowgrad_amd64.s) doing the same operations two pixels at a time.
func galLanes(t, dxs, erow, gv, gG []float64, w int) {
	checkGalLanes(t, dxs, erow, gv, gG, w)
	muX, q11, q12 := t[2*gtMuX], t[2*gtQ11], t[2*gtQ12]
	g10, g20, g11, g21 := t[2*gtG10], t[2*gtG20], t[2*gtG11], t[2*gtG21]
	kv, halfkv := t[2*gtKV], t[2*gtHalfKV]
	d2, q12d2, q22d2 := t[2*gtD2], t[2*gtQ12D2], t[2*gtQ22D2]
	for i, ev := range erow {
		if ev == 0 {
			continue
		}
		d1 := dxs[i] - muX
		s11, s12 := d1*d1, d1*d2
		tq1 := 2 * (q11*d1 + q12d2)
		tq2 := 2 * (q12*d1 + q22d2)
		qg0 := tq1*g10 + tq2*g20
		qg1 := tq1*g11 + tq2*g21

		ke := kv * ev
		gv[i] += ke
		gG[i] -= 0.5 * ke * qg0
		gG[w+i] -= 0.5 * ke * qg1
		for k := 0; k < 4; k++ {
			sa, sb, sc := t[2*(gtSA+k)], t[2*(gtSB+k)], t[2*(gtSC+k)]
			tk := t[2*(gtKG+k)] - halfkv*(sa*s11+sb*s12+sc)
			gG[(k+2)*w+i] += ev * tk
		}
	}
}
