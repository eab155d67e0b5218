// Command salus-dev is the developer-side toolchain CLI (§4.2's
// development flow, plus byteman-style bitstream forensics):
//
//	salus-dev compile  -kernel Conv -o conv_cl        # CL package → files
//	salus-dev inspect  conv_cl.bit                    # header, cells, digest H
//	salus-dev verify   -meta conv_cl.json conv_cl.bit # digest check (⑤a)
//	salus-dev diff     a.bit b.bit                    # frame-level diff
//	salus-dev inject   -meta conv_cl.json -o out.bit conv_cl.bit
//	                                                  # demo injection (plaintext!)
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"salus"
	"salus/internal/bitman"
	"salus/internal/cryptoutil"
	"salus/internal/netlist"
	"salus/internal/smlogic"
)

// metaFile is the developer-recorded metadata stored alongside the
// bitstream: digest H and Loc_Keyattest.
type metaFile struct {
	KernelName string           `json:"kernel"`
	LogicID    string           `json:"logic_id"`
	DigestHex  string           `json:"digest"`
	Loc        netlist.Location `json:"loc"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("salus-dev: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "compile":
		compile(os.Args[2:])
	case "inspect":
		inspect(os.Args[2:])
	case "verify":
		verify(os.Args[2:])
	case "diff":
		diff(os.Args[2:])
	case "inject":
		inject(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: salus-dev {compile|inspect|verify|diff|inject} [flags]")
	os.Exit(2)
}

func compile(args []string) {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	kernel := fs.String("kernel", "Conv", "benchmark kernel")
	device := fs.String("device", "test", "device profile: test, u200 or u250")
	seed := fs.Int64("seed", 1, "place-and-route seed")
	out := fs.String("o", "", "output basename (default: <kernel>_cl)")
	fs.Parse(args)

	k, ok := salus.KernelByName(*kernel)
	if !ok {
		log.Fatalf("unknown kernel %q", *kernel)
	}
	profile, err := profileByName(*device)
	if err != nil {
		log.Fatal(err)
	}
	pkg, err := salus.DevelopCL(k, profile, *seed)
	if err != nil {
		log.Fatal(err)
	}
	base := *out
	if base == "" {
		base = pkg.DesignName
	}
	if err := os.WriteFile(base+".bit", pkg.Encoded, 0o644); err != nil {
		log.Fatal(err)
	}
	meta := metaFile{
		KernelName: pkg.KernelName,
		LogicID:    pkg.LogicID,
		DigestHex:  hex.EncodeToString(pkg.Digest[:]),
		Loc:        pkg.Loc,
	}
	mj, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(base+".json", mj, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %s on %s: %s.bit (%d bytes), %s.json (H=%x...)\n",
		pkg.DesignName, profile.Name, base, len(pkg.Encoded), base, pkg.Digest[:8])
}

// profileByName maps a -device value onto its profile; anything unknown is
// an error rather than a silent fallback to the test device.
func profileByName(name string) (salus.DeviceProfile, error) {
	switch name {
	case "test":
		return salus.TestDevice, nil
	case "u200":
		return salus.U200, nil
	case "u250":
		return salus.U250, nil
	}
	return salus.DeviceProfile{}, fmt.Errorf("unknown device %q (want test, u200 or u250)", name)
}

func inspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("inspect needs one .bit file")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	info, err := bitman.Inspect(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(info)
}

func loadMeta(path string) metaFile {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var m metaFile
	if err := json.Unmarshal(raw, &m); err != nil {
		log.Fatal(err)
	}
	return m
}

func verify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	metaPath := fs.String("meta", "", "metadata .json file")
	fs.Parse(args)
	if fs.NArg() != 1 || *metaPath == "" {
		log.Fatal("verify needs -meta meta.json and one .bit file")
	}
	m := loadMeta(*metaPath)
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	if err := checkDigest(data, m.DigestHex); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("digest OK: %x\n", cryptoutil.Digest(data))
}

// checkDigest compares the bitstream's digest H with the metadata's
// hex-encoded one, which must be a full 32-byte SHA-256.
func checkDigest(data []byte, digestHex string) error {
	want, err := hex.DecodeString(digestHex)
	if err != nil {
		return fmt.Errorf("metadata digest: %w", err)
	}
	if len(want) != 32 {
		return fmt.Errorf("metadata digest is %d bytes, want 32", len(want))
	}
	got := cryptoutil.Digest(data)
	if !cryptoutil.ConstantTimeEqual(got[:], want) {
		return fmt.Errorf("DIGEST MISMATCH: bitstream %x..., metadata %x...", got[:8], want[:8])
	}
	return nil
}

func diff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		log.Fatal("diff needs two .bit files")
	}
	a, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	b, err := os.ReadFile(fs.Arg(1))
	if err != nil {
		log.Fatal(err)
	}
	diffs, err := bitman.Diff(a, b)
	if err != nil {
		log.Fatal(err)
	}
	if len(diffs) == 0 {
		fmt.Println("bitstreams identical")
		return
	}
	fmt.Printf("%d differing frames:\n", len(diffs))
	for i, d := range diffs {
		if i >= 20 {
			fmt.Printf("  ... and %d more\n", len(diffs)-20)
			break
		}
		fmt.Printf("  frame %6d: %d bytes from offset %d\n", d.Frame, d.Bytes, d.FirstByte)
	}
}

func inject(args []string) {
	fs := flag.NewFlagSet("inject", flag.ExitOnError)
	metaPath := fs.String("meta", "", "metadata .json file")
	out := fs.String("o", "injected.bit", "output file")
	fs.Parse(args)
	if fs.NArg() != 1 || *metaPath == "" {
		log.Fatal("inject needs -meta meta.json and one .bit file")
	}
	m := loadMeta(*metaPath)
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	tool, err := bitman.Open(data)
	if err != nil {
		log.Fatal(err)
	}
	secret := cryptoutil.RandomKey(smlogic.SecretsSize)
	if err := tool.Inject(m.Loc, 0, secret); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, tool.Serialize(), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("injected %d random bytes at %s into %s\n", len(secret), m.Loc.Path, *out)
	fmt.Println("WARNING: demo only — in the real flow injection happens inside the SM enclave")
	fmt.Println("         and the result leaves it encrypted under Key_device, never as plaintext.")
}
