package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

const modulePath = "github.com/osu-netlab/osumac"

// profileBuckets are the CPU-profile attribution buckets, in report
// order: the module's packages, then the runtime's GC, allocation and
// scheduler work, then everything else. "bench" is this program's own
// code and "other" any module package not listed.
var profileBuckets = []string{
	"sim", "core", "bitio", "frame", "rs", "gf256", "sched", "phy", "traffic",
	"stats", "backbone", "baseline", "span", "conformance", "obs",
	"experiments", "osumac", "bench", "other",
	"runtime.gc", "runtime.malloc", "runtime.sched", "runtime.other",
}

// Runtime frames that get their own buckets, matched by prefix.
var (
	gcFrames = []string{
		"runtime.gc", "runtime.(*gc", "runtime.mark", "runtime.scan", "runtime.greyobject",
		"runtime.findObject", "runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked)",
		"runtime.(*mspan).sweep", "runtime.bgscavenge", "runtime.(*scavenger", "runtime.wbBuf",
	}
	mallocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.makechan", "runtime.rawstring",
		"runtime.rawbyteslice", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap).alloc",
		"runtime.nextFreeFast",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.mcall", "runtime.futex", "runtime.note",
		"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.runq", "runtime.stealWork",
		"runtime.netpoll", "runtime.usleep", "runtime.osyield", "runtime.goexit0", "runtime.newproc",
		"runtime.gosched", "runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.sema",
		"runtime.procyield", "runtime.checkTimers", "runtime.resetspinning", "runtime.handoffp",
		"runtime.mPark", "runtime.sysmon",
	}
)

// readProfile buckets a CPU profile's samples (in seconds) with
// `go tool pprof -traces`.
func readProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTraces(bytes.NewReader(out))
}

// parseTraces reads `pprof -traces` text: blocks separated by
// "-----------+---" lines, each a sample value followed by its stack,
// leaf first.
func parseTraces(r io.Reader) (map[string]float64, error) {
	buckets := map[string]float64{}
	var (
		value  time.Duration
		frames []string
		inside bool
	)
	flush := func() {
		if len(frames) > 0 {
			buckets[classify(frames)] += value.Seconds()
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inside = true
			continue
		}
		fields := strings.Fields(line)
		if !inside || len(fields) == 0 {
			continue
		}
		if len(frames) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			value = d
			fields = fields[1:]
		}
		frames = append(frames, fields[0])
	}
	flush()
	return buckets, sc.Err()
}

// classify assigns one sample to a bucket: walking from the leaf, the
// first runtime GC, allocation or scheduler frame, or else the first
// frame of this module, decides. So container/heap work counts under
// sim and map operations under core, their callers.
func classify(frames []string) string {
	for _, f := range frames {
		switch {
		case hasAnyPrefix(f, gcFrames):
			return "runtime.gc"
		case hasAnyPrefix(f, mallocFrames):
			return "runtime.malloc"
		case hasAnyPrefix(f, schedFrames):
			return "runtime.sched"
		}
		if b, ok := moduleBucket(f); ok {
			return b
		}
	}
	return "runtime.other"
}

// moduleBucket maps a function of this module to its package bucket.
func moduleBucket(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "bench", true
	}
	rest, ok := strings.CutPrefix(fn, modulePath)
	if !ok {
		return "", false
	}
	if strings.HasPrefix(rest, ".") {
		return "osumac", true
	}
	rest, ok = strings.CutPrefix(rest, "/internal/")
	if !ok {
		return "other", true
	}
	pkg, _, _ := strings.Cut(rest, ".")
	for _, b := range profileBuckets {
		if b == pkg {
			return b, true
		}
	}
	return "other", true
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
