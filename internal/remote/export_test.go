package remote

// Redials reports how many times the session re-dialed a connection of its
// stripe after a broken transport, summed over the stripe: a gateway
// restart costs at most one redial per connection the session calls on
// afterwards.
func (s *Session) Redials() int { return s.conn.redialCount() }

// HandshakeCalls reports the owner's total attestation-path round trips —
// Boot plus Provision, counted by Attest. The region-scoped attestation
// acceptance check: this stays at 2 while shards join, spill, and get keyed.
func (s *Session) HandshakeCalls() int { return int(s.handshakes.Load()) }

// redialCount reports how many times the stripe's connections were
// re-dialed, summed over its slots.
func (k *conn) redialCount() int {
	n := 0
	for i := range k.slots {
		s := &k.slots[i]
		s.mu.Lock()
		n += s.redials
		s.mu.Unlock()
	}
	return n
}
