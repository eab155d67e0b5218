package fleet

import "salus/internal/trace"

// BootTrace returns the merged per-device boot trace.
func (m *Manager) BootTrace() *trace.Log { return m.bootTrace }
