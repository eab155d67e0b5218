package sched

import "time"

// routable reports whether routing should consider this device at all —
// permanently quarantined devices are invisible even as a fallback (work
// parked on them would never be served deliberately).
func (d *device) routable() bool {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	return !d.permanent
}

// admissible reports whether routing may hand the device new work: healthy,
// or quarantined with an expired window and no probe already in flight.
func (d *device) admissible(now time.Time) bool {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	if !d.quarantined {
		return true
	}
	return !d.probing && !now.Before(d.probeAt)
}

// beginProbe marks the chosen quarantined device as running its one
// half-open probe; a no-op on healthy devices.
func (d *device) beginProbe() {
	d.hmu.Lock()
	if d.quarantined {
		d.probing = true
	}
	d.hmu.Unlock()
}

// endProbe ends a half-open probe that proved nothing either way: a
// deliberate rejection or a deadline shed. The board stays quarantined, and
// admissible again, since its probe time has passed.
func (d *device) endProbe() {
	d.hmu.Lock()
	d.probing = false
	d.hmu.Unlock()
}

// onSuccess resets the breaker: one good job readmits the device.
func (d *device) onSuccess() {
	d.hmu.Lock()
	readmitted := d.quarantined
	d.consecFault, d.quarantined, d.probing, d.backoff = 0, false, false, 0
	d.hmu.Unlock()
	if readmitted {
		mReadmits.Inc()
	}
}

// onFault records a device fault and trips or extends the quarantine: a
// failed probe re-quarantines immediately with a doubled window; otherwise
// the breaker trips once consecutive faults reach the threshold. Once
// PermanentAfter probes have failed at the backoff ceiling the breaker
// latches permanently — the board is considered dead and a fleet manager
// may replace it (PermanentAfter <= 0 never latches).
func (d *device) onFault(now time.Time, cfg *Config) {
	d.hmu.Lock()
	wasQuarantined, wasPermanent := d.quarantined, d.permanent
	d.consecFault++
	failedProbe := d.probing
	d.probing = false
	if failedProbe || d.consecFault >= cfg.QuarantineAfter {
		if failedProbe && d.backoff >= cfg.QuarantineMax {
			d.maxedProbes++
			if cfg.PermanentAfter > 0 && d.maxedProbes >= cfg.PermanentAfter {
				d.permanent = true
			}
		}
		if d.backoff == 0 {
			d.backoff = cfg.QuarantineBase
		} else if d.backoff < cfg.QuarantineMax {
			d.backoff *= 2
			if d.backoff > cfg.QuarantineMax {
				d.backoff = cfg.QuarantineMax
			}
		}
		d.quarantined = true
		d.probeAt = now.Add(d.backoff)
	}
	tripped := d.quarantined && !wasQuarantined
	latched := d.permanent && !wasPermanent
	d.hmu.Unlock()
	if tripped {
		mQuarantines.Inc()
	}
	if latched {
		mPermanents.Inc()
	}
}
