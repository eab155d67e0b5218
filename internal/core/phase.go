package core

import "fmt"

// Phase is where a partition stands in its lifecycle (Figure 3 ①–⑧ and
// Figure 4b as one sequence). The service phases are held by the scheduler
// for each registered partition under its health lock: serving (the zero
// Phase), quarantined by the circuit breaker, probing (its one half-open
// probe in flight) and written off. The trust phases are held by a System
// under its job lock: spawned, attested (the CL chain passed ⑦, and on an
// owner boot the ⑧ quote is out), keyed (the user enclave holds the data
// key) and reclaimed, in that order, so a System past PhaseAttested took
// its key. Written off and reclaimed are terminal.
//
// A Phase is the CSP host's bookkeeping only: it orders the host's calls
// and names their refusals. Every security gate stays in an enclave.
type Phase uint8

const (
	PhaseServing Phase = iota
	PhaseQuarantined
	PhaseProbing
	PhaseWrittenOff
	PhaseSpawned
	PhaseAttested
	PhaseKeyed
	PhaseReclaimed
	numPhases
)

// Event is what moves a Phase.
type Event uint8

const (
	EventTrip     Event = iota // the breaker trips, or a fault extends its quarantine
	EventProbe                 // the half-open probe is dispatched
	EventAbandon               // the probe ended without a verdict
	EventReadmit               // a job succeeded on a quarantined partition
	EventWriteOff              // a probe at the backoff ceiling failed once too often
	EventAttest                // the CL chain passed ⑦ (and ⑧ on an owner boot)
	EventKey                   // the user enclave took the data key
	EventServe                 // the key is used: a job runs, or a sibling is granted it
	EventReclaim               // the partition's key material is zeroized
	numEvents
)

// legal is the one table of legal moves; every other pair is refused.
var legal = [...]struct {
	from Phase
	on   Event
	to   Phase
}{
	{PhaseServing, EventTrip, PhaseQuarantined},
	{PhaseQuarantined, EventTrip, PhaseQuarantined},
	{PhaseQuarantined, EventProbe, PhaseProbing},
	{PhaseQuarantined, EventReadmit, PhaseServing},
	{PhaseProbing, EventTrip, PhaseQuarantined},
	{PhaseProbing, EventAbandon, PhaseQuarantined},
	{PhaseProbing, EventReadmit, PhaseServing},
	{PhaseProbing, EventWriteOff, PhaseWrittenOff},
	{PhaseSpawned, EventAttest, PhaseAttested},
	{PhaseSpawned, EventReclaim, PhaseReclaimed},
	{PhaseAttested, EventKey, PhaseKeyed},
	{PhaseAttested, EventReclaim, PhaseReclaimed},
	{PhaseKeyed, EventServe, PhaseKeyed},
	{PhaseKeyed, EventReclaim, PhaseReclaimed},
}

// moves and refusals index legal by (phase, event), a refused move staying
// put. They are built once so that a refusal allocates nothing: the breaker
// offers an event on every job.
var moves, refusals = func() (to [numPhases][numEvents]Phase, refused [numPhases][numEvents]error) {
	for p := range refused {
		for e := range refused[p] {
			to[p][e], refused[p][e] = Phase(p), fmt.Errorf("core: cannot %s a partition that is %s", Event(e), Phase(p))
		}
	}
	for _, m := range legal {
		to[m.from][m.on], refused[m.from][m.on] = m.to, nil
	}
	return to, refused
}()

// Next returns the phase e moves p to, or p and an error when the table
// has no such move.
func (p Phase) Next(e Event) (Phase, error) {
	if p >= numPhases || e >= numEvents {
		return p, fmt.Errorf("core: no phase %d or event %d", p, e)
	}
	return moves[p][e], refusals[p][e]
}

func (p Phase) String() string {
	return [...]string{"serving", "quarantined", "probing", "written off",
		"spawned", "attested", "keyed", "reclaimed"}[p]
}

func (e Event) String() string {
	return [...]string{"trip", "probe", "abandon the probe of", "readmit", "write off",
		"attest", "key", "serve", "reclaim"}[e]
}
