package osumac_test

// Metro-scale benchmark for the multi-cell backbone engine. The CI
// variant sizes a 100-cell slice so the benchdiff gate tracks the
// engine's barrier and exchange overhead; its name, ci-sharded, is the
// one BENCH_4.json records. The full metro (14k cells, ~1M subscribers)
// is too heavy for every CI run and is gated behind OSUMAC_METRO=1.
// Between barriers the per-cell kernels run on a pool of GOMAXPROCS
// workers; `bash bench/run.sh --workload metro --trace 1` reports the
// measured speed-up over one worker as backbone.speedup_procs.

import (
	"os"
	"testing"

	"github.com/osu-netlab/osumac/internal/experiments"
	"github.com/osu-netlab/osumac/internal/phy"
)

func metroBenchOptions(cells int) experiments.MetroOptions {
	return experiments.MetroOptions{
		Cells:         cells,
		GPSPerCell:    1,
		DataPerCell:   3,
		RoutedPerCell: 2,
		Load:          0.8,
		Seed:          42,
		Warmup:        2,
		Cycles:        4,
		WireDelay:     phy.CycleLength,
	}
}

// BenchmarkMetroSweep measures the multi-cell backbone.
func BenchmarkMetroSweep(b *testing.B) {
	run := func(b *testing.B, opts experiments.MetroOptions) {
		var res *experiments.MetroResult
		for i := 0; i < b.N; i++ {
			var err error
			res, err = experiments.Metro(opts)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Subscribers), "subs")
		b.ReportMetric(float64(res.Delivered), "delivered")
		b.ReportMetric(res.Utilization, "util-mean")
	}
	b.Run("ci-sharded", func(b *testing.B) { run(b, metroBenchOptions(100)) })
	if os.Getenv("OSUMAC_METRO") == "" {
		b.Log("full metro variant skipped; set OSUMAC_METRO=1 to run 14k cells / ~1M subscribers")
		return
	}
	b.Run("full-sharded", func(b *testing.B) {
		opts := experiments.DefaultMetro()
		opts.Warmup = 2
		opts.Cycles = 3
		run(b, opts)
	})
}
