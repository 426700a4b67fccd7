package sim

import (
	"testing"
	"time"
)

// TestAtAllocsZero guards the hotpathalloc root Simulator.At: events
// are heap values, so scheduling an existing closure and firing it
// allocates nothing once the heap has grown.
func TestAtAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := New()
	fired := 0
	fn := func() { fired++ }
	step := func() {
		for p := PriorityDeliver; p <= PriorityBackbone; p += 10 {
			if err := s.At(s.Now()+time.Millisecond, p, fn); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(s.Now() + time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if n := testing.AllocsPerRun(500, step); n != 0 {
		t.Fatalf("At + Run: %v allocs/op, want 0", n)
	}
	if fired == 0 {
		t.Fatal("no event fired")
	}
}
