package remote

// Redials reports how many times the session re-dialed the gateway after a
// broken transport.
func (s *Session) Redials() int { return s.conn.redialCount() }

// HandshakeCalls reports the owner's total attestation-path round trips —
// Boot plus Provision. The region-scoped attestation acceptance check:
// this stays at 2 while shards join, spill, and get keyed.
func (s *Session) HandshakeCalls() int { return s.conn.count("Cluster.Boot", "Cluster.Provision") }

// count reports how many logical calls were made to each named method.
func (k *conn) count(methods ...string) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := 0
	for _, m := range methods {
		n += k.calls[m]
	}
	return n
}

// redialCount reports how many times the connection was re-dialed.
func (k *conn) redialCount() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.redials
}
