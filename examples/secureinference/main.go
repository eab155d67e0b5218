// Secure inference: the private-ML scenario that motivates the paper's
// intro — a data owner's images are processed on rented cloud FPGAs without
// the CSP ever seeing plaintext. The pipeline runs Viola-Jones face
// detection on an encrypted camera frame, then a convolution layer on an
// encrypted feature map, each on its own attested FPGA TEE instance.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"salus"
	"salus/internal/accel"
	"salus/internal/shell"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("secure-inference: ")

	// Stage 1: face detection on an encrypted 320x240 frame with six
	// synthetic faces planted by the workload generator. Each instance's
	// shell snoops its bus with a Recorder, so the run can show afterwards
	// what the CSP saw.
	detBus := &shell.Recorder{}
	det, err := salus.NewSystem(salus.SystemConfig{Kernel: salus.FaceDetect{}, Timing: salus.FastTiming(), Interceptor: detBus})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := det.SecureBoot(); err != nil {
		log.Fatal(err)
	}
	frame := accel.GenFaceDetect(320, 240, 6, 2024)
	out, err := det.RunJob(frame)
	if err != nil {
		log.Fatal(err)
	}
	dets, err := accel.DecodeDetections(out)
	if err != nil {
		log.Fatal(err)
	}
	planted := accel.PlantedFaces(320, 240, 6)
	fmt.Printf("stage 1 (FaceDetect): %d planted faces, %d windows detected on the attested CL\n",
		len(planted), len(dets))
	hits := 0
	for _, p := range planted {
		for _, d := range dets {
			dx, dy := d.X-p.X, d.Y-p.Y
			if dx*dx+dy*dy <= 128 {
				hits++
				break
			}
		}
	}
	fmt.Printf("stage 1: %d/%d planted faces recovered; the shell saw only ciphertext frames\n",
		hits, len(planted))

	// Stage 2: a convolution layer over an encrypted feature map — e.g.
	// the embedding stage of a recognition model.
	convBus := &shell.Recorder{}
	conv, err := salus.NewSystem(salus.SystemConfig{Kernel: salus.Conv{}, Timing: salus.FastTiming(), Interceptor: convBus})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := conv.SecureBoot(); err != nil {
		log.Fatal(err)
	}
	fm := accel.GenConv(16, 16, 8, 2025)
	res, err := conv.RunJob(fm)
	if err != nil {
		log.Fatal(err)
	}
	var checksum int64
	for i := 0; i+4 <= len(res); i += 4 {
		checksum += int64(int32(binary.LittleEndian.Uint32(res[i:])))
	}
	fmt.Printf("stage 2 (Conv): %d activations computed under the FPGA TEE (checksum %d)\n",
		len(res)/4, checksum)

	// Prove the data path really was opaque to the CSP.
	for _, bus := range []*shell.Recorder{detBus, convBus} {
		for _, f := range bus.Frames() {
			if containsPlaintext(f, frame.Input) || containsPlaintext(f, fm.Input) {
				log.Fatal("plaintext user data observed by the shell")
			}
		}
	}
	fmt.Println("verified: no plaintext user data in either shell transcript")
}

func containsPlaintext(frame, data []byte) bool {
	if len(data) < 32 {
		return false
	}
	probe := data[:32]
	for i := 0; i+len(probe) <= len(frame); i++ {
		match := true
		for j := range probe {
			if frame[i+j] != probe[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
