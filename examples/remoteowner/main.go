// Remote owner: the full networked topology of §6.1 as a library user sees
// it — manufacturer key service and a one-board gateway on TCP sockets, a data
// owner session that attests the platform across the wire in one cascaded
// round trip, and sealed job traffic end to end. Everything runs in one
// process on loopback; the byte flows are identical to a real split
// deployment.
package main

import (
	"bytes"
	"fmt"
	"log"

	"salus"
	"salus/internal/client"
	"salus/internal/core"
	"salus/internal/federation"
	"salus/internal/fleet"
	"salus/internal/manufacturer"
	"salus/internal/remote"
	"salus/internal/sched"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("remote-owner: ")

	// Manufacturer domain: key-distribution service on a socket.
	mfr, err := manufacturer.New()
	if err != nil {
		log.Fatal(err)
	}
	mfrSrv, mfrAddr, err := remote.ServeManufacturer(mfr, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer mfrSrv.Close()
	fmt.Println("manufacturer service on", mfrAddr)

	// Cloud domain: the instance's SM enclave reaches the manufacturer
	// over TCP; the gateway takes the data owner's calls for a pool of one.
	keyClient, err := remote.DialManufacturer(mfrAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer keyClient.Close()
	sys, err := core.NewSystem(core.SystemConfig{
		Kernel:       salus.FaceDetect{},
		Manufacturer: mfr,
		KeyService:   keyClient,
		Timing:       salus.FastTiming(),
	})
	if err != nil {
		log.Fatal(err)
	}
	// A fixed pool of one is a one-shard region over the caller's scheduler.
	sch := sched.New(sched.Config{})
	defer sch.Close()
	pool := []*core.System{sys}
	instSrv, instAddr, err := remote.Serve(federation.Single(fleet.Fixed(sch, pool)), pool, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer instSrv.Close()
	fmt.Println("instance gateway on   ", instAddr)

	// Owner domain: attest across the network, then offload.
	sess, err := remote.Dial(instAddr, []client.Expectations{sys.Expectations()})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		log.Fatalf("platform NOT trusted: %v", err)
	}
	fmt.Println("cascaded attestation verified over TCP; data key provisioned")

	w, _ := salus.TestWorkload("FaceDetect", 8)
	out, _, err := sess.RunJob("", "FaceDetect", w.Params, w.Input)
	if err != nil {
		log.Fatal(err)
	}
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		log.Fatal("remote result diverges from local ground truth")
	}
	fmt.Printf("FaceDetect offloaded over the wire: %d bytes in, %d bytes out, bit-exact\n",
		len(w.Input), len(out))
}
