//go:build race

package sched

// raceEnabled reports that this binary was built with -race: allocation
// budgets skip themselves, since the detector allocates on its own account.
const raceEnabled = true
