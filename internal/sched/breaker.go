package sched

import (
	"time"

	"salus/internal/core"
)

// move offers e to the breaker's phase and reports whether it moved. The
// breaker's inputs arrive on every job whatever the phase, so an event the
// phase has no move for changes nothing. Callers hold hmu.
func (d *device) move(e core.Event) bool {
	next, err := d.phase.Next(e)
	d.phase = next
	return err == nil
}

// routable reports whether routing should consider this device at all —
// written-off devices are invisible even as a fallback (work parked on
// them would never be served deliberately).
func (d *device) routable() bool {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	return d.phase != core.PhaseWrittenOff
}

// admissible reports whether routing may hand the device new work: serving,
// or quarantined with an expired window (no probe already in flight).
func (d *device) admissible(now time.Time) bool {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	switch d.phase {
	case core.PhaseServing:
		return true
	case core.PhaseQuarantined:
		return !now.Before(d.probeAt)
	}
	return false
}

// beginProbe marks the chosen quarantined device as running its one
// half-open probe; a no-op in any other phase.
func (d *device) beginProbe() {
	d.hmu.Lock()
	d.move(core.EventProbe)
	d.hmu.Unlock()
}

// endProbe ends a half-open probe that proved nothing either way: a
// deliberate rejection or a deadline shed. The board stays quarantined, and
// admissible again, since its probe time has passed.
func (d *device) endProbe() {
	d.hmu.Lock()
	d.move(core.EventAbandon)
	d.hmu.Unlock()
}

// onSuccess resets the breaker: one good job readmits the device.
func (d *device) onSuccess() {
	d.hmu.Lock()
	d.consecFault, d.backoff = 0, 0
	readmitted := d.move(core.EventReadmit)
	d.hmu.Unlock()
	if readmitted {
		mReadmits.Inc()
	}
}

// onFault records a device fault and trips or extends the quarantine: a
// failed probe re-quarantines immediately with a doubled window; otherwise
// the breaker trips once consecutive faults reach the threshold. Once
// PermanentAfter probes have failed at the backoff ceiling the device is
// written off — the board is considered dead and a fleet manager may
// replace it (PermanentAfter <= 0 never writes one off).
func (d *device) onFault(now time.Time, cfg *Config) {
	d.hmu.Lock()
	d.consecFault++
	from := d.phase
	e := core.EventTrip
	if from == core.PhaseProbing && d.backoff >= cfg.QuarantineMax {
		d.maxedProbes++
		if cfg.PermanentAfter > 0 && d.maxedProbes >= cfg.PermanentAfter {
			e = core.EventWriteOff
		}
	}
	below := from == core.PhaseServing && d.consecFault < cfg.QuarantineAfter
	if below || !d.move(e) { // a written-off device never moves again
		d.hmu.Unlock()
		return
	}
	if d.backoff == 0 {
		d.backoff = cfg.QuarantineBase
	} else if d.backoff < cfg.QuarantineMax {
		d.backoff *= 2
		if d.backoff > cfg.QuarantineMax {
			d.backoff = cfg.QuarantineMax
		}
	}
	d.probeAt = now.Add(d.backoff)
	d.hmu.Unlock()
	if from == core.PhaseServing {
		mQuarantines.Inc()
	}
	if e == core.EventWriteOff {
		mPermanents.Inc()
	}
}
