//go:build race

package accel

// raceEnabled reports that this binary was built with -race, under which
// sync.Pool drops a share of what it is given on purpose: pooled
// allocation counts are not meaningful.
const raceEnabled = true
