package sched

import (
	"errors"
	"fmt"
	"sync"

	"salus/internal/client"
	"salus/internal/core"
	"salus/internal/cryptoutil"
)

// BootSharedParallel boots every system in the slice with one freshly
// generated shared data key and returns that key. A pool provisioned this
// way runs sealed jobs interchangeably: input sealed under the key opens on
// any device, which is what lets Submit route by load instead of by
// identity.
//
// Key distribution is atomic in two phases: first every device runs the
// instance side of the boot and has its cascaded quote verified — one
// goroutine per device; only when all K chains check out is the key sealed
// and delivered to each. A board failing mid-boot therefore never leaves
// siblings holding a half-distributed shared key — the call fails and no
// device received it. With a shared smapp.PreparedCache/QuotePool in the
// systems' configs the expensive boot stages single-flight across the
// fleet; without them the boots are merely overlapped.
func BootSharedParallel(systems []*core.System) ([]byte, error) {
	pubs := make([][]byte, len(systems))
	errs := make([]error, len(systems))
	var wg sync.WaitGroup
	for i, sys := range systems {
		wg.Add(1)
		go func(i int, sys *core.System) {
			defer wg.Done()
			ver := client.New(sys.Expectations())
			nonce := ver.NewNonce()
			quote, err := sys.BootAndQuote(nonce)
			if err != nil {
				errs[i] = fmt.Errorf("sched: boot device %d (%s): %w", i, sys.Device.DNA(), err)
				return
			}
			if pubs[i], err = sys.VerifyQuote(ver, nonce, quote); err != nil {
				errs[i] = fmt.Errorf("sched: verify device %d (%s): %w", i, sys.Device.DNA(), err)
			}
		}(i, sys)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	// Every chain verified: deliver the key. Sealing is per-enclave-key and
	// cheap; a delivery failure here is a crypto-layer defect, not a device
	// fault, and is surfaced as-is.
	key := cryptoutil.RandomKey(16)
	for i, sys := range systems {
		if err := sys.ProvisionKey(pubs[i], key); err != nil {
			return nil, fmt.Errorf("sched: provision device %d (%s): %w", i, sys.Device.DNA(), err)
		}
	}
	return key, nil
}
