// Command bench measures the OSU-MAC simulator end to end on four fixed
// workloads and splits each workload's time across the simulator's
// layers. See README.md for the workloads, metrics and bounds.
//
//	go run .                          # every workload, 3 rounds each
//	go run . -workload metro -seed 7  # one workload, another input seed
//	go run . -trace                   # the per-layer numbers
//	go run . compare A B              # compare two directories of results
//
// Each round runs in a fresh child process (this binary re-executed), so
// every round starts from a cold heap and has its own peak RSS.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const (
	defaultSeed = 42
	// minRounds is the round count of a run without -seconds, and the
	// least a run with -seconds makes; minTracedRounds is the same for
	// the traced rounds of a -trace run, whose CPU profiles are summed.
	minRounds       = 3
	minTracedRounds = 2
)

//go:embed testdata/digests.json
var pinnedJSON []byte

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	pin      string
	child    bool
	round    int
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		ok, err := compareMain(os.Args[2:], os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if o.child {
		err = childMain(o)
	} else {
		var ok bool
		ok, err = parentMain(o, os.Stdout)
		if err == nil && !ok {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed that generates every job's inputs")
	fs.Float64Var(&o.seconds, "seconds", 0, "keep starting rounds until this many seconds have passed (0: exactly 3 rounds)")
	fs.BoolVar(&o.trace, "trace", false, "traced run: report the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "directory for result.json and, with -trace, spans and CPU profiles (default with -trace: a new temporary directory)")
	fs.StringVar(&o.pin, "pin", "", "write this run's job digests to `file` as the pinned digests")
	fs.BoolVar(&o.child, "child", false, "internal: run one round and print it as JSON")
	fs.IntVar(&o.round, "round", 0, "internal: round number of a -child run")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.workload != "" && workloadByName(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 0 || math.IsNaN(o.seconds) {
		return o, fmt.Errorf("-seconds must be non-negative")
	}
	return o, nil
}

// joinTraceValue rewrites "--trace 0" and "--trace 1" as "-trace=0" and
// "-trace=1": a boolean flag takes its value only after "=".
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

func childMain(o options) error {
	rr, err := runRound(workloadByName(o.workload), o.seed, o.round, o.trace, o.out)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rr)
}

// spawn runs one round in a child process and waits for it.
func spawn(o options, w *workload, round int, traced bool, env ...string) (*roundResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
		"-round", strconv.Itoa(round)}
	if traced {
		args = append(args, "-trace", "-out", o.out)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s round %d: %w", w.name, round, err)
	}
	var rr roundResult
	if err := json.Unmarshal(out, &rr); err != nil {
		return nil, fmt.Errorf("%s round %d: %w", w.name, round, err)
	}
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	fmt.Fprintf(os.Stderr, "%s round %d (%s, GOMAXPROCS=%d): %.2f s, %d jobs, peak RSS %.1f MiB\n",
		w.name, round, kind, rr.Procs, float64(rr.WallNS)/1e9, len(rr.Jobs), float64(rr.PeakRSSKB)/1024)
	return &rr, nil
}

// runResult is one invocation's outcome, written as result.json.
type runResult struct {
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Seconds   float64           `json:"seconds"`
	Host      hostInfo          `json:"host"`
	Workloads []*workloadResult `json:"workloads"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

type workloadResult struct {
	Name      string        `json:"name"`
	Rounds    int           `json:"rounds"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Problems  []string      `json:"problems,omitempty"`
	Metrics   []metricValue `json:"metrics"`
	// Exact holds the deterministic counts of the untraced rounds.
	Exact   map[string]float64 `json:"exact,omitempty"`
	digests map[string]string
}

// metricValue is one measured metric. Its bound and direction live in
// the metric tables, not in the results.
type metricValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// N is the number of samples behind Value.
	N int `json:"n"`
}

func measured(d metricDef, v float64, n int) metricValue {
	return metricValue{Name: d.Name, Unit: d.Unit, Value: v, N: n}
}

func (r *workloadResult) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

func parentMain(o options, stdout io.Writer) (bool, error) {
	if o.trace && o.out == "" {
		dir, err := os.MkdirTemp("", "osumac-bench-")
		if err != nil {
			return false, err
		}
		o.out = dir
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return false, err
		}
		abs, err := filepath.Abs(o.out)
		if err != nil {
			return false, err
		}
		o.out = abs
	}
	pinned := map[string]map[string]string{}
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		return false, fmt.Errorf("pinned digests: %w", err)
	}
	run := &runResult{Seed: o.seed, Traced: o.trace, Seconds: o.seconds, Host: hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		OS: runtime.GOOS, Arch: runtime.GOARCH,
	}}
	for _, w := range workloads {
		if o.workload != "" && w.name != o.workload {
			continue
		}
		res, err := runWorkload(o, w, pinned[w.name])
		if err != nil {
			return false, err
		}
		run.Workloads = append(run.Workloads, res)
		printWorkload(stdout, res)
	}
	if o.out != "" {
		if err := writeJSON(filepath.Join(o.out, "result.json"), run); err != nil {
			return false, err
		}
		fmt.Fprintln(os.Stderr, "results in", o.out)
	}
	if o.pin != "" {
		if err := writePins(o.pin, run); err != nil {
			return false, err
		}
	}
	line, ok, err := resultLine(run)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(stdout, line)
	return ok, nil
}

// runWorkload runs one workload's rounds, each in its own child, and
// reduces them.
func runWorkload(o options, w *workload, pinned map[string]string) (*workloadResult, error) {
	start := time.Now()
	more := func(rounds, least int) bool {
		return rounds < least || time.Since(start).Seconds() < o.seconds
	}
	var (
		rounds []*roundResult
		traced []*roundResult
		oneCPU *roundResult
	)
	if !o.trace {
		for r := 0; more(r, minRounds); r++ {
			rr, err := spawn(o, w, r, false)
			if err != nil {
				return nil, err
			}
			rounds = append(rounds, rr)
		}
	} else {
		ref, err := spawn(o, w, 0, false)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, ref)
		if w.name == "metro" {
			if oneCPU, err = spawn(o, w, 1, false, "GOMAXPROCS=1"); err != nil {
				return nil, err
			}
			rounds = append(rounds, oneCPU)
		}
		for r := len(rounds); more(len(traced), minTracedRounds); r++ {
			rr, err := spawn(o, w, r, true)
			if err != nil {
				return nil, err
			}
			traced = append(traced, rr)
			rounds = append(rounds, rr)
		}
	}
	res := &workloadResult{Name: w.name, Rounds: len(rounds), digests: map[string]string{}}
	res.Attempted, res.Failed, res.Problems = checkRounds(rounds, pinned)
	for _, rr := range rounds {
		for _, j := range rr.Jobs {
			res.digests[j.Key] = j.Digest
		}
	}
	if o.trace {
		res.Metrics = layerValues(rounds[0], oneCPU, traced)
		return res, nil
	}
	res.Metrics = endToEndValues(rounds)
	res.Metrics = append(res.Metrics, measured(endToEndExtra[1],
		float64(res.Failed)/float64(res.Attempted), res.Attempted))
	res.Exact = map[string]float64{}
	for _, d := range perLayer {
		if v, ok := rounds[0].Layer[d.Name]; ok && d.Exact {
			res.Exact[d.Name] = v
		}
	}
	return res, nil
}

// checkRounds is the correctness gate. A job fails when it returned an
// error, when its digest differs from the pinned one or from the same
// job's digest in another round, or when its conformance re-run found a
// violation or a different digest. Exact counters must repeat across
// rounds.
func checkRounds(rounds []*roundResult, pinned map[string]string) (attempted, failed int, problems []string) {
	seen := map[string]string{}
	for _, rr := range rounds {
		for _, j := range rr.Jobs {
			attempted++
			first, ok := seen[j.Key]
			if !ok {
				seen[j.Key] = j.Digest
			}
			var bad string
			switch {
			case j.Err != "":
				bad = j.Err
			case pinned[j.Key] != "" && pinned[j.Key] != j.Digest:
				bad = fmt.Sprintf("digest %s, pinned %s", j.Digest, pinned[j.Key])
			case ok && first != j.Digest:
				bad = fmt.Sprintf("digest %s differs from an earlier round's %s", j.Digest, first)
			case j.Conformance != "" && j.Conformance != "ok":
				bad = j.Conformance
			}
			if bad != "" {
				failed++
				problems = append(problems, fmt.Sprintf("round %d job %s: %s", rr.Round, j.Key, bad))
			}
		}
		if rr.Counters != rounds[0].Counters {
			problems = append(problems, fmt.Sprintf("round %d: exact counters %+v differ from round %d's %+v",
				rr.Round, rr.Counters, rounds[0].Round, rounds[0].Counters))
		}
	}
	return attempted, failed, problems
}

// endToEndValues reduces untraced rounds: timings pool the job samples
// of every round, throughput takes the median over rounds, and peak RSS
// the smallest round's. GC timing only ever adds to a round's peak (up
// to 40 % on the cell workloads), so the smallest is the steady
// footprint.
func endToEndValues(rounds []*roundResult) []metricValue {
	var thr, jobs, setups []float64
	rss := math.Inf(1)
	for _, rr := range rounds {
		thr = append(thr, rr.SubCycles/(float64(rr.WallNS)/1e9))
		rss = min(rss, float64(rr.PeakRSSKB)/1024)
		for _, j := range rr.Jobs {
			jobs = append(jobs, float64(j.SetupNS+j.RunNS)/1e6)
			if rr.SetupProbeNS == nil {
				setups = append(setups, float64(j.SetupNS)/1e9)
			}
		}
		for _, ns := range rr.SetupProbeNS {
			setups = append(setups, float64(ns)/1e9)
		}
	}
	out := []metricValue{
		measured(endToEnd[0], median(thr), len(thr)),
		measured(endToEnd[1], median(jobs), len(jobs)),
		measured(endToEnd[2], median(setups), len(setups)),
		measured(endToEnd[3], rss, len(rounds)),
	}
	if p90, ok := tailPercentile(jobs, 90); ok {
		out = append(out, measured(endToEndExtra[0], p90, len(jobs)))
	}
	return out
}

// layerValues reduces a traced run: ref is its untraced reference round,
// oneCPU the metro round at GOMAXPROCS=1 (nil elsewhere), traced the
// traced rounds.
func layerValues(ref, oneCPU *roundResult, traced []*roundResult) []metricValue {
	profile := map[string]float64{}
	var profTotal, jobNS float64
	self := map[string]float64{}
	var walls []float64
	for _, rr := range traced {
		for b, s := range rr.Profile {
			profile[b] += s
			profTotal += s
		}
		for name, ns := range rr.SpanSelfNS {
			self[name] += float64(ns)
		}
		jobNS += float64(rr.JobNS)
		walls = append(walls, float64(rr.WallNS))
	}
	parent := map[string]float64{
		"bench.trace_overhead": median(walls) / float64(ref.WallNS),
	}
	if oneCPU != nil {
		parent["backbone.speedup_procs"] = float64(oneCPU.Jobs[0].RunNS) / float64(ref.Jobs[0].RunNS)
	}
	for _, b := range profileBuckets {
		parent[b+".self_frac"] = profile[b] / profTotal
	}
	// The CPU profiler samples at 100 Hz.
	samples := int(math.Round(profTotal * 100))
	for g, names := range spanGroups {
		var ns float64
		for _, n := range names {
			ns += self[n]
		}
		parent["spans."+g+".self_frac"] = ns / jobNS
	}

	out := make([]metricValue, 0, len(perLayer))
	for _, d := range perLayer {
		mv := measured(d.metricDef, 0, 0)
		switch d.src {
		case fromUntraced:
			if v, ok := ref.Layer[d.Name]; ok {
				mv.Value, mv.N = v, 1
			} else if v, ok := traced[0].Layer[d.Name]; ok {
				mv.Value, mv.N = v, 1
			}
		case fromTraced:
			var xs []float64
			for _, rr := range traced {
				if v, ok := rr.Layer[d.Name]; ok {
					xs = append(xs, v)
				}
			}
			mv.Value, mv.N = median(xs), len(xs)
		case fromParent:
			mv.Value, mv.N = parent[d.Name], len(traced)
			if strings.HasSuffix(d.Name, ".self_frac") && !strings.HasPrefix(d.Name, "spans.") {
				mv.N = samples
			}
		}
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			mv.Value, mv.N = 0, 0
		}
		out = append(out, mv)
	}
	return out
}

func printWorkload(w io.Writer, r *workloadResult) {
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-12s %-30s %16.6g %-7s n=%d\n", r.Name, m.Name, m.Value, m.Unit, m.N)
	}
	for _, name := range sortedKeys(r.Exact) {
		fmt.Fprintf(w, "%-12s %-30s %16.10g exact\n", r.Name, name, r.Exact[name])
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%-12s FAIL %s\n", r.Name, p)
	}
}

// resultLine is the one-line JSON summary printed last. With one
// workload its metrics are the BENCHMARK.json list (end-to-end, or
// per-layer when traced); with several, names carry a "workload/"
// prefix.
func resultLine(run *runResult) (line string, correct bool, err error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	listed := map[string]bool{}
	for _, d := range endToEnd {
		listed[d.Name] = true
	}
	for _, d := range perLayer {
		listed[d.Name] = true
	}
	for _, r := range run.Workloads {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, m := range r.Metrics {
			if !listed[m.Name] {
				continue
			}
			name := m.Name
			if len(run.Workloads) > 1 {
				name = r.Name + "/" + name
			}
			out.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(out)
	return string(b), out.Correct, err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writePins records this run's digests as the pinned ones. Only a run
// at the default seed may pin, so the file always describes that seed.
func writePins(path string, run *runResult) error {
	if run.Seed != defaultSeed {
		return errors.New("-pin needs the default seed")
	}
	pins := map[string]map[string]string{}
	for _, w := range run.Workloads {
		if !w.correct() {
			return fmt.Errorf("-pin: %s has failures", w.Name)
		}
		pins[w.Name] = w.digests
	}
	return writeJSON(path, pins)
}
