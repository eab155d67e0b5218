//go:build race

package remote

// raceEnabled reports that this binary was built with -race: allocation
// budgets skip themselves (the detector allocates on its own account and
// sync.Pool drops items at random under it), and bufpool poisons every
// buffer it takes back: the gateway's request frames and its served sealed
// outputs.
const raceEnabled = true
