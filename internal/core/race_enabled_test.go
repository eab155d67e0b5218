//go:build race

package core

// raceEnabled reports that this binary was built with -race: bounds on
// scaled wall-clock measurements (the constant-size enclave crypto) are
// not checked, since the detector slows crypto by an order of magnitude.
const raceEnabled = true
