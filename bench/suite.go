package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// sizing is how much the suite form measures.
type sizing struct {
	perWorkload time.Duration // untraced seconds per workload, over all passes
	passes      int           // interleaved passes over the workloads
	traced      time.Duration // traced pass per workload
}

// suiteSizing gives every workload `seconds` untraced seconds cut into
// three interleaved passes, and as much again traced. -short is the smoke
// test's sizing: every code path, no claim to steadiness.
func suiteSizing(seconds int, short bool) sizing {
	if short {
		return sizing{perWorkload: 400 * time.Millisecond, passes: 1, traced: 300 * time.Millisecond}
	}
	d := time.Duration(seconds) * time.Second
	return sizing{perWorkload: d, passes: 3, traced: d}
}

// document is the suite's output, BENCH_<n>.json.
type document struct {
	Schema    string    `json:"schema"`
	Commit    string    `json:"commit"`
	GoVersion string    `json:"go_version"`
	NProc     int       `json:"nproc"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds_per_workload"`
	Started   time.Time `json:"started"`
	Results   []result  `json:"results"`
}

const docSchema = "salus-bench/1"

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSuite measures every workload: untraced rounds in interleaved
// passes, so a machine-wide stall lands on one round of each workload
// instead of on one workload's whole figure, then one traced pass each.
func runSuite(seed int64, sz sizing) (*document, error) {
	doc := &document{
		Schema: docSchema, Commit: gitCommit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		Seed: seed, Seconds: sz.perWorkload.Seconds(), Started: time.Now().UTC(),
	}
	workloads := make([]workload, len(workloadSpecs))
	for i, spec := range workloadSpecs {
		w, err := newWorkload(spec.Name, seed)
		if err != nil {
			return nil, err
		}
		workloads[i] = w
	}
	collected := make([][]round, len(workloads))
	for pass := 0; pass < sz.passes; pass++ {
		for i, w := range workloads {
			rs, err := w.rounds(sz.perWorkload / time.Duration(sz.passes))
			if err != nil {
				return nil, err
			}
			collected[i] = append(collected[i], rs...)
		}
	}
	for i, w := range workloads {
		name := workloadSpecs[i].Name
		res := foldRounds(name, collected[i])
		tr, err := measureTraced(name, w, sz.traced, "out")
		if err != nil {
			return nil, err
		}
		res.PerLayer = tr.PerLayer
		res.Attempted += tr.Attempted
		res.Failed += tr.Failed
		res.Correct = res.Correct && tr.Correct
		printHuman(res)
		doc.Results = append(doc.Results, res)
	}
	return doc, nil
}

// finish writes the document (when a path is given) and fails the run if
// any workload's correctness checks did.
func (doc *document) finish(path string) error {
	if path != "" {
		data, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, res := range doc.Results {
		if !res.Correct {
			return fmt.Errorf("%s failed its correctness checks: %d of %d calls failed; %s",
				res.Workload, res.Failed, res.Attempted, strings.Join(res.Invalid, "; "))
		}
	}
	return nil
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != docSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, docSchema)
	}
	return &doc, nil
}

// Verdicts of one (workload, end-to-end metric) comparison.
const (
	vBetter     = "better"
	vSame       = "same"
	vWorse      = "worse"
	vUnresolved = "unresolved"
)

// verdict applies the regression rule to one metric. worse is the change
// as a share of the old value, positive when the new value is worse. When
// the rounds of either side spread wider than the bound the pair is
// unresolved, unless every new round beats every old one.
func verdict(spec metricSpec, old, new sample) (worse float64, v string) {
	if old.Value == 0 {
		return 0, vUnresolved
	}
	worse = (new.Value - old.Value) / old.Value
	if spec.Better == "higher" {
		worse = -worse
	}
	if spreadShare(old.Rounds) > spec.Bound || spreadShare(new.Rounds) > spec.Bound {
		if allBetter(spec, old.Rounds, new.Rounds) {
			return worse, vBetter
		}
		return worse, vUnresolved
	}
	switch {
	case worse > spec.Bound:
		return worse, vWorse
	case worse < -spec.Bound:
		return worse, vBetter
	}
	return worse, vSame
}

// allBetter reports whether every new round reads better than every old.
func allBetter(spec metricSpec, old, new []float64) bool {
	if len(old) == 0 || len(new) == 0 {
		return false
	}
	o, n := sorted(old), sorted(new)
	if spec.Better == "higher" {
		return n[0] > o[len(o)-1]
	}
	return n[len(n)-1] < o[0]
}

// compareDocs prints one row per (workload, end-to-end metric) and
// returns an error when any row is worse.
func compareDocs(old, new *document) error {
	byName := map[string]result{}
	for _, r := range old.Results {
		byName[r.Workload] = r
	}
	fmt.Printf("%-16s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "old", "new", "worse", "bound", "verdict")
	var bad []string
	for _, nr := range new.Results {
		or, ok := byName[nr.Workload]
		if !ok {
			continue
		}
		for _, spec := range endToEndSpecs {
			o, n := or.EndToEnd[spec.Name], nr.EndToEnd[spec.Name]
			worse, v := verdict(spec, o, n)
			fmt.Printf("%-16s %-18s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n", nr.Workload, spec.Name, o.Value, n.Value, worse*100, spec.Bound*100, v)
			if v == vWorse {
				bad = append(bad, nr.Workload+"/"+spec.Name)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("worse: %s", strings.Join(bad, ", "))
	}
	return nil
}

func compareFiles(oldPath, newPath string) error {
	old, err := readDocument(oldPath)
	if err != nil {
		return err
	}
	new, err := readDocument(newPath)
	if err != nil {
		return err
	}
	return compareDocs(old, new)
}

// runSelfcheck measures the same build twice and applies the regression
// rule to the pair: the benchmark must not call itself worse.
func runSelfcheck(seed int64, sz sizing) error {
	first, err := runSuite(seed, sz)
	if err != nil {
		return err
	}
	if err := first.finish(""); err != nil {
		return err
	}
	second, err := runSuite(seed, sz)
	if err != nil {
		return err
	}
	if err := second.finish(""); err != nil {
		return err
	}
	return compareDocs(first, second)
}
