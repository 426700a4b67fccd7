package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	osumac "github.com/osu-netlab/osumac"
	"github.com/osu-netlab/osumac/internal/experiments"
)

// testCells are small versions of the two cell configurations: the
// paper sweep's ideal channel at ρ 0.3, and the lossy cell.
func testCells() map[string]osumac.Scenario {
	return map[string]osumac.Scenario{
		"ideal-0.3": *cellJob(5, 0.3, 0, 300).cell,
		"lossy":     *cellJob(5, lossyLoad, lossyLoss, 200).cell,
	}
}

func publicDigest(t *testing.T, scn osumac.Scenario) string {
	t.Helper()
	res, err := osumac.Run(scn)
	if err != nil {
		t.Fatal(err)
	}
	d, err := snapshotDigest(res.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSteppedRunMatchesRun(t *testing.T) {
	for name, scn := range testCells() {
		t.Run(name, func(t *testing.T) {
			rec := newRecorder(time.Now(), 1)
			res, ctr, err := runCellJob(scn, rec)
			if err != nil {
				t.Fatal(err)
			}
			if want := publicDigest(t, scn); res.Digest != want {
				t.Fatalf("stepped traced run digest %s, osumac.Run %s", res.Digest, want)
			}
			untraced, uctr, err := runCellJob(scn, nil)
			if err != nil {
				t.Fatal(err)
			}
			if untraced.Digest != res.Digest || uctr != ctr {
				t.Fatalf("untraced %s %+v, traced %s %+v", untraced.Digest, uctr, res.Digest, ctr)
			}
			tot := totalSpans([]*recorder{rec})
			cycles := tot.count[spanCycleCompiled] + tot.count[spanCycleFallback]
			if want := scn.WarmupCycles + scn.Cycles; cycles != want {
				t.Fatalf("%d cycle spans, want %d", cycles, want)
			}
		})
	}
}

func TestSchedulerDecoratorLeavesResultsUnchanged(t *testing.T) {
	for name, scn := range testCells() {
		t.Run(name, func(t *testing.T) {
			rec := newRecorder(time.Now(), 1)
			n, err := buildCell(scn, &timedScheduler{inner: osumac.NewRoundRobin(), rec: rec})
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Run(scn.WarmupCycles + scn.Cycles); err != nil {
				t.Fatal(err)
			}
			got, err := snapshotDigest(n.Metrics())
			if err != nil {
				t.Fatal(err)
			}
			if want := publicDigest(t, scn); got != want {
				t.Fatalf("decorated digest %s, osumac.Run %s", got, want)
			}
			if len(rec.spans) == 0 || len(rec.open) != 0 {
				t.Fatalf("%d sched spans, %d left open", len(rec.spans), len(rec.open))
			}
		})
	}
}

func TestMetroDriverDigestMatchesExperiments(t *testing.T) {
	j := metroJob(42, 50)
	res, ctr := runJob(j, nil)
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	ref, err := experiments.Metro(*j.metro)
	if err != nil {
		t.Fatal(err)
	}
	if want := formatDigest(ref.Digest); res.Digest != want {
		t.Fatalf("bench metro digest %s, experiments.Metro %s", res.Digest, want)
	}
	if ctr.Forwarded != ref.Forwarded || ctr.Delivered != ref.Delivered || int(ctr.RingSends) != ref.RingSends {
		t.Fatalf("counters %+v, experiments.Metro %+v", ctr, ref)
	}
}

// TestPinnedDigestsReproduce re-runs the first job of every workload but
// metro at the default seed against testdata/digests.json.
func TestPinnedDigestsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full-size jobs")
	}
	pinned := map[string]map[string]string{}
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if w.name == "metro" {
			continue
		}
		j := w.jobs(defaultSeed)[0]
		res, _ := runJob(j, nil)
		if want := pinned[w.name][j.key]; res.Err != "" || res.Digest != want {
			t.Errorf("%s job %s: digest %s err %q, pinned %s", w.name, j.key, res.Digest, res.Err, want)
		}
	}
}

func TestTailPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := tailPercentile(xs, 90); ok {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 100)
	if v, ok := tailPercentile(xs, 90); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := tailPercentile(xs[:3], 50); ok {
		t.Fatal("p50 of 3 samples must be refused as a tail")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Fatalf("quartiles of 3 = %v %v %v", q1, q2, q3)
	}
}

func TestCheckRoundsCountsFailures(t *testing.T) {
	round := func(r int, digests ...string) *roundResult {
		rr := &roundResult{Round: r}
		for i, d := range digests {
			rr.Jobs = append(rr.Jobs, jobResult{Key: string(rune('a' + i)), Digest: d})
		}
		return rr
	}
	clean := []*roundResult{round(0, "1", "2"), round(1, "1", "2")}
	if a, f, p := checkRounds(clean, nil); a != 4 || f != 0 || len(p) != 0 {
		t.Fatalf("clean rounds: attempted %d failed %d problems %v", a, f, p)
	}

	crossRound := []*roundResult{round(0, "1", "2"), round(1, "1", "X")}
	if _, f, _ := checkRounds(crossRound, nil); f != 1 {
		t.Fatalf("cross-round mismatch: %d failures, want 1", f)
	}

	pinned := map[string]string{"a": "1", "b": "2"}
	injected := []*roundResult{round(0, "1", "X"), round(1, "1", "X")}
	a, f, _ := checkRounds(injected, pinned)
	if f != 2 || a != 4 {
		t.Fatalf("pinned mismatch: %d of %d failed, want 2 of 4", f, a)
	}
	res := &workloadResult{Attempted: a, Failed: f}
	if line, ok, err := resultLine(&runResult{Workloads: []*workloadResult{res}}); ok || err != nil ||
		!strings.Contains(line, `"failed":2`) {
		t.Fatalf("result line %s, ok %v, err %v", line, ok, err)
	}

	conform := []*roundResult{round(0, "1")}
	conform[0].Jobs[0].Conformance = "1 protocol invariant violation(s)"
	if _, f, _ := checkRounds(conform, nil); f != 1 {
		t.Fatalf("conformance failure: %d failures, want 1", f)
	}
}

func TestRoundTracedMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two rounds and go tool pprof")
	}
	w := &workload{
		name: "test-cells",
		jobs: func(seed uint64) []job {
			return []job{cellJob(seed, 0.5, 0, 60), cellJob(seed+1, 1.0, 0, 60), cellJob(seed, 0.8, lossyLoss, 40)}
		},
		pooled: true,
	}
	plain, err := runRound(w, 3, 0, false, "")
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runRound(w, 3, 1, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, f, p := checkRounds([]*roundResult{plain, traced}, nil); f != 0 || len(p) != 0 {
		t.Fatalf("traced round differs from untraced: %v", p)
	}
	if c := plain.Jobs[0].Conformance; c != "ok" {
		t.Fatalf("conformance re-run of job 0: %q", c)
	}
	for _, name := range []string{"core.cycle_us_p50", "sched.calls", "sim.host_ns_per_event"} {
		if traced.Layer[name] <= 0 {
			t.Errorf("traced %s = %v", name, traced.Layer[name])
		}
	}
	var frac float64
	for _, s := range traced.Profile {
		frac += s
	}
	if frac <= 0 {
		t.Error("empty CPU profile")
	}
}

func TestClassifyStacks(t *testing.T) {
	const text = `File: bench
Type: cpu
-----------+-------------------------------------------------------
      10ms   runtime.(*mcache).refill
             runtime.mallocgc
             github.com/osu-netlab/osumac/internal/sim.(*RNG).Shuffled
-----------+-------------------------------------------------------
      20ms   container/heap.Push
             github.com/osu-netlab/osumac/internal/sim.(*Simulator).At
             github.com/osu-netlab/osumac/internal/core.(*Network).beginCycle
-----------+-------------------------------------------------------
      30ms   github.com/osu-netlab/osumac/internal/gf256.Mul (inline)
             github.com/osu-netlab/osumac/internal/rs.(*Code).chienSearch
-----------+-------------------------------------------------------
     1.20s   runtime.scanobject
             runtime.gcDrain
-----------+-------------------------------------------------------
      40ms   runtime.mapaccess2
             github.com/osu-netlab/osumac.Build
-----------+-------------------------------------------------------
      50ms   runtime.futex
             runtime.findRunnable
-----------+-------------------------------------------------------
      60ms   encoding/json.Marshal
             main.snapshotDigest
-----------+-------------------------------------------------------
      70ms   syscall.Syscall
`
	got, err := parseTraces(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"runtime.malloc": 0.01, "sim": 0.02, "gf256": 0.03, "runtime.gc": 1.2,
		"osumac": 0.04, "runtime.sched": 0.05, "bench": 0.06, "runtime.other": 0.07,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
	for k := range got {
		if !slices.Contains(profileBuckets, k) {
			t.Errorf("bucket %q is not reported", k)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	d := endToEnd[0] // throughput, higher is better, bound 25 %
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		b    []float64
		want string
	}{
		{base, "ok"},
		{scale(base, 0.7), "REGRESSION"},
		{scale(base, 1.3), "gain"},
	}
	for _, c := range cases {
		if got := compareMetric(d, base, c.b).verdict; got != c.want {
			t.Errorf("B = %v: verdict %q, want %q", c.b[:3], got, c.want)
		}
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if got := compareMetric(d, noisy, scale(base, 0.95)).verdict; !strings.HasPrefix(got, "unresolved") {
		t.Errorf("noisy parent: verdict %q, want unresolved", got)
	}

	run := func(events float64) *runResult {
		return &runResult{Workloads: []*workloadResult{{Name: "w", Exact: map[string]float64{"sim.events": events}}}}
	}
	a := []*runResult{run(7), run(7)}
	if got := exactMismatches(a, []*runResult{run(7)}, "w"); len(got) != 0 {
		t.Errorf("identical counters reported as %v", got)
	}
	if got := exactMismatches(a, []*runResult{run(7), run(8)}, "w"); !slices.Equal(got, []string{"sim.events"}) {
		t.Errorf("differing counter: mismatches %v", got)
	}
}

func TestJoinTraceValue(t *testing.T) {
	got := joinTraceValue([]string{"--workload", "metro", "--trace", "0", "--seed", "1"})
	want := []string{"--workload", "metro", "--trace=0", "--seed", "1"}
	if !slices.Equal(got, want) {
		t.Fatalf("%v, want %v", got, want)
	}
	o, err := parseFlags([]string{"--workload", "metro", "--seed", "7", "--seconds", "20", "--trace", "1"})
	if err != nil || !o.trace || o.seed != 7 || o.seconds != 20 || o.workload != "metro" {
		t.Fatalf("%+v, %v", o, err)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json in step with the
// metric and workload tables it describes.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v, want %+v", spec.EndToEnd, endToEnd)
	}
	var layer []metricDef
	for _, d := range perLayer {
		m := d.metricDef
		m.Exact = false
		layer = append(layer, m)
	}
	if !slices.Equal(spec.PerLayer, layer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
