package mathx

const haveExpQuads = true

// expQuads replaces v's elements with math.Exp's bits in groups of four,
// running math.Exp's amd64 FMA path on four lanes (exp_amd64.s), and
// returns how many it replaced: a multiple of four, stopping before the
// first group that len(v) does not fill or that holds a NaN, +Inf or an
// argument whose result overflows. It uses AVX and FMA3 only, which
// math's FMA path needs too.
//
//go:noescape
func expQuads(v []float64) int
