//go:build !amd64

package mathx

const haveExpQuads = false

// expQuads is never called where haveExpQuads is false.
func expQuads(v []float64) int { panic("mathx: no packed exp on this GOARCH") }
