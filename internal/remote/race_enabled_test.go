//go:build race

package remote

// raceEnabled reports that this binary was built with -race: allocation
// budgets skip themselves (the detector allocates on its own account and
// sync.Pool drops items at random under it), and rpc poisons every frame it
// recycles.
const raceEnabled = true
