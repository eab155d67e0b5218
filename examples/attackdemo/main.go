// Attack demo: a walking tour of the threat model. A curious-then-malicious
// CSP tries, in turn, to snoop the bitstream, substitute its own CL, tamper
// with the attestation bus, and replay session traffic — and the deployment
// shuts every attempt down while an honest control deployment sails
// through.
package main

import (
	"fmt"
	"log"

	"salus"
)

func boot(name string, ic salus.Interceptor) error {
	sys, err := salus.NewSystem(salus.SystemConfig{
		Kernel:      salus.Conv{},
		Timing:      salus.FastTiming(),
		Interceptor: ic,
	})
	if err != nil {
		return err
	}
	_, err = sys.SecureBoot()
	return err
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("attack-demo: ")

	fmt.Println("== control: honest shell ==")
	if err := boot("honest", nil); err != nil {
		log.Fatalf("honest deployment must boot: %v", err)
	}
	fmt.Println("boot OK — attested, data key provisioned")

	fmt.Println()
	fmt.Println("== attack 1: shell substitutes its own CL at load time ==")
	evil, err := salus.DevelopCL(salus.Conv{}, salus.TestDevice, 666)
	if err != nil {
		log.Fatal(err)
	}
	if err := boot("substitute", salus.SubstituteCL{Evil: evil.Encoded}); err != nil {
		fmt.Println("blocked:", err)
	} else {
		log.Fatal("substitution was NOT detected")
	}

	fmt.Println()
	fmt.Println("== attack 2: shell flips bits in the encrypted bitstream ==")
	if err := boot("tamper", salus.TamperBits{Offset: 12345}); err != nil {
		fmt.Println("blocked:", err)
	} else {
		log.Fatal("tampering was NOT detected")
	}

	fmt.Println()
	fmt.Println("== attack 3: shell forges the CL attestation response ==")
	if err := boot("forge", &salus.ForgeAttestation{}); err != nil {
		fmt.Println("blocked:", err)
	} else {
		log.Fatal("forgery was NOT detected")
	}

	fmt.Println()
	fmt.Println("== attack 4: shell replays secure-channel frames at runtime ==")
	sys, err := salus.NewSystem(salus.SystemConfig{
		Kernel:      salus.Conv{},
		Timing:      salus.FastTiming(),
		Interceptor: &salus.ReplayRequests{},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.SecureBoot(); err != nil {
		log.Fatal(err)
	}
	// The shell records the first job's sealed register frame and replays
	// it in place of the second job's.
	w, _ := salus.TestWorkload("Conv", 9)
	if _, err := sys.RunJob(w); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.RunJob(w); err != nil {
		fmt.Println("blocked:", err)
	} else {
		log.Fatal("replay was NOT detected")
	}

	fmt.Println()
	fmt.Println("== attack 5: shell scans the loaded CL through ICAP readback ==")
	honest, err := salus.NewSystem(salus.SystemConfig{Kernel: salus.Conv{}, Timing: salus.FastTiming()})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := honest.SecureBoot(); err != nil {
		log.Fatal(err)
	}
	if _, err := honest.Shell.AttemptReadback(0); err != nil {
		fmt.Println("blocked:", err)
	} else {
		log.Fatal("readback was NOT blocked")
	}

	fmt.Println()
	fmt.Println("every attack stopped; go run ./cmd/salus-report prints the full Table 3 matrix")
}
