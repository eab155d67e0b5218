package manufacturer

// SetMinSMVersion raises the TCB recovery floor: quotes from SM enclave
// builds older than v are refused even if their measurement was once
// trusted — the DCAP "fully patched platform" policy (§2.1).
func (s *Service) SetMinSMVersion(v uint16) {
	s.mu.Lock()
	s.minSMVersion = v
	s.mu.Unlock()
}
