//go:build ignore

// Abstat summarises the paired runs scripts/ab.sh leaves in a directory:
// base.<i>.json and change.<i>.json, each the JSON result line of one
// bench/run.sh. For every end-to-end metric of the benchmark spec it prints
// each side's median and quartiles, the change in the median, and the
// pairs the change won. It exits 1 if any run was not correct.
//
//	go run scripts/abstat.go -spec BENCHMARK.json -dir <dir> -pairs <n>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

type spec struct {
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

type run struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark spec")
	dir := flag.String("dir", "", "directory of base.<i>.json and change.<i>.json")
	pairs := flag.Int("pairs", 0, "number of pairs")
	flag.Parse()
	if err := summarise(*specPath, *dir, *pairs); err != nil {
		fmt.Fprintln(os.Stderr, "abstat:", err)
		os.Exit(1)
	}
}

func summarise(specPath, dir string, pairs int) error {
	var sp spec
	if err := readJSON(specPath, &sp); err != nil {
		return err
	}
	sides := [2]string{"base", "change"}
	var runs [2][]run
	bad := 0
	for s, side := range sides {
		for i := 0; i < pairs; i++ {
			var r run
			if err := readJSON(filepath.Join(dir, fmt.Sprintf("%s.%d.json", side, i)), &r); err != nil {
				return err
			}
			if !r.Correct {
				fmt.Printf("%s run %d not correct: %d of %d failed\n", side, i+1, r.Failed, r.Attempted)
				bad++
			}
			runs[s] = append(runs[s], r)
		}
	}
	fmt.Printf("%-18s %-6s %-36s %-36s %8s %6s\n", "metric", "better", "base median [q1 q3]", "change median [q1 q3]", "median", "wins")
	for _, m := range sp.EndToEnd {
		var vals [2][]float64
		for s := range sides {
			for _, r := range runs[s] {
				vals[s] = append(vals[s], r.Metrics[m.Name].Value)
			}
		}
		wins := 0
		for i := 0; i < pairs; i++ {
			b, c := vals[0][i], vals[1][i]
			if (m.Better == "lower" && c < b) || (m.Better == "higher" && c > b) {
				wins++
			}
		}
		bq, cq := quartiles(vals[0]), quartiles(vals[1])
		delta := 0.0
		if bq[1] != 0 {
			delta = 100 * (cq[1] - bq[1]) / bq[1]
		}
		fmt.Printf("%-18s %-6s %-36s %-36s %+7.2f%% %3d/%d\n", m.Name, m.Better,
			fmt.Sprintf("%.4g [%.4g %.4g] %s", bq[1], bq[0], bq[2], m.Unit),
			fmt.Sprintf("%.4g [%.4g %.4g] %s", cq[1], cq[0], cq[2], m.Unit), delta, wins, pairs)
	}
	for s, side := range sides {
		attempted, failed := 0, 0
		for _, r := range runs[s] {
			attempted, failed = attempted+r.Attempted, failed+r.Failed
		}
		fmt.Printf("%s: %d jobs attempted, %d failed\n", side, attempted, failed)
	}
	if bad > 0 {
		return fmt.Errorf("%d runs not correct", bad)
	}
	return nil
}

// quartiles returns the first quartile, the median and the third quartile
// of v, interpolating linearly between order statistics.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
