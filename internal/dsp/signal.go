package dsp

// Energy returns the total energy (sum of squared magnitudes) of x.
func Energy(x []complex128) float64 {
	s := 0.0
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s
}
