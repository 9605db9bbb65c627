package mog

// galLanes is the lane pass of sweepGalGrad (see rowgrad.go) over the pixels
// of one component's active span: dxs, erow and gv start at the span's first
// pixel, and gG at that pixel of gradient lane 0, with lane k at offset k*w.
// t is the component's galaxy table.
func galLanes(t, dxs, erow, gv, gG []float64, w int) {
	checkGalLanes(t, dxs, erow, gv, gG, w)
	galLanesSSE2(&t[0], &dxs[0], &erow[0], &gv[0], &gG[0], len(dxs), w)
}

// galLanesSSE2 is the lane pass in SSE2 assembly (rowgrad_amd64.s), two
// pixels per step with packed multiplies, adds and subtracts in the fused
// sweep's order, no FMA and no horizontal sums; an odd last pixel runs the
// same packed sequence on its low lane. n is the span length.
//
//go:noescape
func galLanesSSE2(t, dxs, erow, gv, gG *float64, n, w int)
