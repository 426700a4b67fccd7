package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// compareMain compares two directories of result.json files, A (the
// parent) and B (the change), per workload and metric:
//
//   - each side's median and quartiles;
//   - the fraction of pairs (run i of A, run i of B) that B wins;
//   - the metric's bound applied to B's median against A's;
//   - "unresolved" where A's own spread exceeds the bound, unless every
//     run of B reads better than every run of A;
//   - an exact match on every exact counter.
//
// It reports false when a metric regressed or a counter differs.
func compareMain(args []string, w io.Writer) (bool, error) {
	if len(args) != 2 {
		return false, errors.New("usage: bench compare A B (directories holding result.json files)")
	}
	a, err := loadResults(args[0])
	if err != nil {
		return false, err
	}
	b, err := loadResults(args[1])
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s (%d runs, %s, nproc %d)\nB: %s (%d runs, %s, nproc %d)\n",
		args[0], len(a), a[0].Host.Go, a[0].Host.NProc, args[1], len(b), b[0].Host.Go, b[0].Host.NProc)
	fmt.Fprintf(w, "%-12s %-18s %-40s %-40s %8s %5s %6s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "wins", "bound", "verdict")
	ok := true
	metrics := append(slices.Clone(endToEnd), endToEndExtra...)
	for _, wr := range a[0].Workloads {
		for _, d := range metrics {
			av, bv := metricRuns(a, wr.Name, d.Name), metricRuns(b, wr.Name, d.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			c := compareMetric(d, av, bv)
			if c.verdict == "REGRESSION" {
				ok = false
			}
			fmt.Fprintf(w, "%-12s %-18s %-40s %-40s %+7.1f%% %5.2f %5.0f%%  %s\n",
				wr.Name, d.Name, quartileText(c.a), quartileText(c.b), 100*c.change, c.wins, 100*d.Bound, c.verdict)
		}
		for _, name := range exactMismatches(a, b, wr.Name) {
			ok = false
			fmt.Fprintf(w, "%-12s %-18s exact counter differs between runs: MISMATCH\n", wr.Name, name)
		}
	}
	return ok, nil
}

// loadResults reads every result.json under dir.
func loadResults(dir string) ([]*runResult, error) {
	var out []*runResult
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != "result.json" {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r runResult
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if r.Traced {
			return fmt.Errorf("%s: a traced run; compare untraced runs", path)
		}
		out = append(out, &r)
		return nil
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("no result.json under %s", dir)
	}
	return out, err
}

// metricRuns collects one metric of one workload across runs, in run
// order; runs that lack it are skipped.
func metricRuns(runs []*runResult, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		for _, w := range r.Workloads {
			if w.Name != workload {
				continue
			}
			for _, m := range w.Metrics {
				if m.Name == metric {
					out = append(out, m.Value)
				}
			}
		}
	}
	return out
}

type comparison struct {
	a, b    [3]float64 // quartiles
	wins    float64    // fraction of pairs B wins, ties counting for neither
	change  float64    // B's median against A's, positive = worse
	verdict string
}

func compareMetric(d metricDef, a, b []float64) comparison {
	var c comparison
	c.a[0], c.a[1], c.a[2] = quartiles(a)
	c.b[0], c.b[1], c.b[2] = quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	pairs := min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	c.wins /= float64(pairs)
	if c.a[1] != 0 {
		c.change = (c.b[1] - c.a[1]) / math.Abs(c.a[1])
	} else if c.b[1] != 0 {
		c.change = math.Copysign(math.Inf(1), c.b[1])
	}
	if d.Better == "higher" {
		c.change = -c.change
	}
	iqr := c.a[2] - c.a[0]
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case d.Bound == 0:
		c.verdict = "ok"
		if c.change > 0 {
			c.verdict = "REGRESSION"
		}
	case c.a[1] != 0 && iqr/math.Abs(c.a[1]) > d.Bound && !allBetter:
		c.verdict = "unresolved (A's spread exceeds the bound)"
	case c.change > d.Bound:
		c.verdict = "REGRESSION"
	case c.wins >= 0.9 && math.Abs(c.b[1]-c.a[1]) > iqr:
		c.verdict = "gain"
	default:
		c.verdict = "ok"
	}
	return c
}

func quartileText(q [3]float64) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q[1], q[0], q[2])
}

// exactMismatches names the exact counters of one workload that are not
// identical across every run of A and B.
func exactMismatches(a, b []*runResult, workload string) []string {
	var ref map[string]float64
	bad := map[string]bool{}
	for _, r := range append(slices.Clone(a), b...) {
		for _, w := range r.Workloads {
			if w.Name != workload {
				continue
			}
			if ref == nil {
				ref = w.Exact
				continue
			}
			for k, v := range ref {
				if w.Exact[k] != v {
					bad[k] = true
				}
			}
			for k := range w.Exact {
				if _, ok := ref[k]; !ok {
					bad[k] = true
				}
			}
		}
	}
	return sortedKeys(bad)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
