//go:build race

package federation

// raceEnabled reports that this binary was built with -race, under which
// the detector allocates on its own account: allocation tests skip.
const raceEnabled = true
