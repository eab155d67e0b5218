// Multi-RP: the §4.7 extension. One device exposes two reconfigurable
// partitions; each is a full system of its own — SM and user enclave pair,
// sealed register channel, key epoch — so a Conv CL and an Affine CL are
// deployed and attested independently, each with its own freshly injected
// root of trust, and each then runs a job over its own protected path.
package main

import (
	"bytes"
	"fmt"
	"log"

	"salus"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("multirp: ")

	systems, err := salus.NewMultiRPSystem(salus.TestDevice, "A58293108",
		[]salus.Kernel{salus.Conv{}, salus.Affine{}}, salus.FastTiming())
	if err != nil {
		log.Fatal(err)
	}
	dev := systems[0].Device
	for i, sys := range systems {
		if _, err := sys.SecureBoot(); err != nil {
			log.Fatalf("partition %d: %v", i, err)
		}
		fmt.Printf("partition %d: CL %q attested=%v (digest %x...)\n",
			i, sys.Package.DesignName, sys.SM.Attested(), sys.Package.Digest[:8])
	}
	fmt.Printf("device %s: %d partitions booted, %d partial bitstreams loaded\n",
		dev.DNA(), dev.Partitions(), dev.Loads())

	for i, sys := range systems {
		w, _ := salus.TestWorkload(sys.Package.KernelName, int64(i))
		got, err := sys.RunJob(w)
		if err != nil {
			log.Fatalf("partition %d job: %v", i, err)
		}
		want, err := w.Kernel.Compute(w.Params, w.Input)
		if err != nil {
			log.Fatal(err)
		}
		cl, err := dev.CL(i)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("partition %d runs %s: %d-byte result matches the reference: %v\n",
			i, cl.LogicID(), len(got), bytes.Equal(got, want))
	}
}
