package experiments

import (
	"runtime"
	"testing"
	"time"

	"github.com/osu-netlab/osumac/internal/phy"
)

// metroCI is a CI-sized metro slice: enough cells for real exchange
// pressure, small enough for the test suite.
func metroCI() MetroOptions {
	return MetroOptions{
		Cells:         40,
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

// metroCIDigest is the metro digest of metroCI, pinned while the
// shared-kernel (serial) and per-cell-kernel (sharded) engines both
// still produced it.
const metroCIDigest = 0x71b5e72232501530

// TestMetroShardedMatchesSerial pins the metro runner's digest — FNV
// over every per-cell metrics snapshot plus the backbone counters and
// latency samples — at the value the serial engine produced, and
// requires the same result at GOMAXPROCS 1 and 2.
func TestMetroShardedMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var got []MetroResult
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		res, err := Metro(metroCI())
		if err != nil {
			t.Fatal(err)
		}
		if res.Digest != metroCIDigest {
			t.Fatalf("GOMAXPROCS=%d: metro digest %#x, want %#x\n%+v",
				procs, res.Digest, uint64(metroCIDigest), res)
		}
		got = append(got, *res)
	}
	if got[0] != got[1] {
		t.Fatalf("GOMAXPROCS 1 vs 2 results differ:\n%+v\n%+v", got[0], got[1])
	}
	if got[0].Forwarded == 0 || got[0].Delivered == 0 {
		t.Fatalf("ring traffic never crossed the backbone: %+v", got[0])
	}
	if got[0].Subscribers != 40*6 {
		t.Fatalf("subscriber count %d, want %d", got[0].Subscribers, 40*6)
	}
}

// TestMetroDigestIsStableAcrossLookahead: the barrier window must stay a
// pure performance knob at metro scale too.
func TestMetroDigestIsStableAcrossLookahead(t *testing.T) {
	ref, err := Metro(metroCI())
	if err != nil {
		t.Fatal(err)
	}
	narrow := metroCI()
	narrow.Lookahead = 500 * time.Millisecond
	got, err := Metro(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Digest != got.Digest {
		t.Fatalf("lookahead changed the metro digest: %x vs %x", ref.Digest, got.Digest)
	}
}

// TestMetroValidation pins the capacity checks.
func TestMetroValidation(t *testing.T) {
	bad := metroCI()
	bad.DataPerCell = phy.MaxDataUsers
	if _, err := Metro(bad); err == nil {
		t.Fatal("over-capacity cell accepted")
	}
	bad = metroCI()
	bad.Cells = 1 << 15
	bad.RoutedPerCell = 2
	if _, err := Metro(bad); err == nil {
		t.Fatal("routed population beyond the 16-bit address space accepted")
	}
	bad = metroCI()
	bad.Cells = 0
	if _, err := Metro(bad); err == nil {
		t.Fatal("zero cells accepted")
	}
}
