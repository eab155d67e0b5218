// Command bench is the repository's benchmark: seven named workloads over
// the job path and the boot path, end-to-end metrics from untraced rounds
// and per-layer metrics from a traced pass. See README.md.
//
// Driver form (one workload, one JSON result line last on stdout):
//
//	bash bench/run.sh --workload small-cluster --seed 1 --seconds 10 --trace 0
//
// Suite form (every workload, rounds interleaved, one document):
//
//	go run -C bench . -seed 1 -out out/BENCH_11.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// newWorkload builds the named workload and its seeded inputs.
func newWorkload(name string, seed int64) (workload, error) {
	small := func() (*jobInputs, error) { return genConvInputs(seed, 64, 16, 16, 4) }
	switch name {
	case wSmall:
		in, err := small()
		if err != nil {
			return nil, err
		}
		return newClusterLoop(name, in, 0, 500, 256), nil
	case wBulk:
		// 16 distinct inputs, not 64: a 1 MiB golden costs ~20 ms.
		in, err := genConvInputs(seed, 16, 256, 256, 8)
		if err != nil {
			return nil, err
		}
		return newClusterLoop(name, in, 0, 8, 8), nil
	case wBatch:
		in, err := small()
		if err != nil {
			return nil, err
		}
		return newClusterLoop(name, in, 64, 8, 8), nil
	case wFed:
		in, err := small()
		if err != nil {
			return nil, err
		}
		return newFedLoop(seed, in), nil
	case wOpen:
		in, err := small()
		if err != nil {
			return nil, err
		}
		return &openLoop{in: in}, nil
	case wBootCold:
		return &bootCold{seed: seed}, nil
	case wBootFleet:
		return &bootFleet{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func foldRounds(name string, rs []round) result {
	res := result{Workload: name}
	res.EndToEnd, res.Attempted, res.Failed, res.Invalid = endToEnd(rs)
	res.Correct = res.Failed == 0 && len(res.Invalid) == 0 && res.Attempted > 0
	return res
}

// measureTraced runs one workload's traced pass; every per-layer name is
// present in the result, 0 where the workload does not cross the layer.
func measureTraced(name string, w workload, d time.Duration, traceDir string) (result, error) {
	tr := newTracer()
	vals, attempted, failed, err := w.traced(d, tr)
	if err != nil {
		return result{}, err
	}
	res := result{Workload: name, Attempted: attempted, Failed: failed, PerLayer: map[string]sample{}}
	for k := range vals {
		if unitOf(perLayerSpecs, k) == "" {
			return result{}, fmt.Errorf("%s emitted unknown per-layer metric %q", name, k)
		}
	}
	for _, s := range perLayerSpecs {
		res.PerLayer[s.Name] = sample{Value: vals[s.Name], Unit: s.Unit}
	}
	res.Correct = failed == 0 && attempted > 0
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return result{}, err
		}
		if err := tr.write(filepath.Join(traceDir, "trace-"+name+".json")); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

// driverLine is the last stdout line of a driver run.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printHuman(res result) {
	print := func(kind string, m map[string]sample) {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			s := m[k]
			line := fmt.Sprintf("%-16s %-10s %-36s %14.4f %s", res.Workload, kind, k, s.Value, s.Unit)
			if s.N > 0 {
				line += fmt.Sprintf("  n=%d", s.N)
				if s.Tail != "" {
					line += fmt.Sprintf(" %s=%.1f", s.Tail, s.TailValue)
				}
			}
			if len(s.Rounds) > 1 && len(s.Rounds) <= 16 {
				line += fmt.Sprintf("  rounds=%.4g", s.Rounds)
			}
			fmt.Println(line)
		}
	}
	print("end_to_end", res.EndToEnd)
	print("per_layer", res.PerLayer)
	for _, why := range res.Invalid {
		fmt.Printf("%-16s INVALID    %s\n", res.Workload, why)
	}
}

func runDriver(name string, seed int64, seconds int, traced bool) error {
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	d := time.Duration(seconds) * time.Second
	var res result
	if traced {
		res, err = measureTraced(name, w, d, "out")
	} else {
		var rs []round
		if rs, err = w.rounds(d); err == nil {
			res = foldRounds(name, rs)
		}
	}
	if err != nil {
		return err
	}
	printHuman(res)
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverMetric{}}
	src := res.EndToEnd
	if traced {
		src = res.PerLayer
	}
	for k, s := range src {
		line.Metrics[k] = driverMetric{s.Value, s.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload in driver form (default: the whole suite)")
		seed         = flag.Int64("seed", 1, "input seed")
		seconds      = flag.Int("seconds", runSeconds, "measured seconds per workload and pass")
		traceFlag    = flag.Int("trace", 0, "driver form: 0 prints end-to-end metrics, 1 runs the traced pass and prints per-layer metrics")
		out          = flag.String("out", "", "suite form: write the BENCH document here")
		short        = flag.Bool("short", false, "suite form: smoke sizing")
		compare      = flag.Bool("compare", false, "compare two BENCH documents given as arguments; exit 1 on worse")
		selfcheck    = flag.Bool("selfcheck", false, "run the suite twice and compare the two")
		printSpec    = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	switch {
	case *printSpec || *compare:
	case *workloadName != "" && *traceFlag == 0:
		warmMemory(warmUntraced)
	default:
		warmMemory(warmTraced)
	}
	err := func() error {
		switch {
		case *printSpec:
			data, err := json.MarshalIndent(buildManifest(), "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(data))
			return nil
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare needs two files")
			}
			return compareFiles(flag.Arg(0), flag.Arg(1))
		case *workloadName != "":
			return runDriver(*workloadName, *seed, *seconds, *traceFlag == 1)
		case *selfcheck:
			return runSelfcheck(*seed, suiteSizing(*seconds, *short))
		default:
			doc, err := runSuite(*seed, suiteSizing(*seconds, *short))
			if err != nil {
				return err
			}
			return doc.finish(*out)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
