package rpc

import "salus/internal/bufpool"

// Every test in this package runs with poison on release: a pooled frame is
// filled with 0xA5 before it is recycled, so a slice that outlived its frame
// reads garbage deterministically instead of another call's bytes by luck.
func init() { bufpool.Poison = true }
