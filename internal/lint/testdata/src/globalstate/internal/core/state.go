// Package core is a known-bad fixture for the globalstate analyzer:
// package-level mutable state, an unsynchronized shared map, and a
// reassigned error sentinel and sync.OnceValue table, alongside the
// allowed forms (constants, sentinels, write-once tables, blank
// assertions) and one suppressed site.
package core

import (
	"errors"
	"sync"
)

// ErrOverflow is a write-once error sentinel: allowed.
var ErrOverflow = errors.New("core: queue overflow")

// cache is an unsynchronized shared map: flagged.
var cache = map[string]int{}

// cycleCount is package-level mutable state: flagged.
var cycleCount int

//lint:ignore globalstate registry is populated once during init and read-only afterwards
var registry = map[int]string{}

// slotCount is a constant: allowed.
const slotCount = 16

// slotTable is built once on first use and never reassigned: allowed.
var slotTable = sync.OnceValue(func() [slotCount]int { return [slotCount]int{1} })

// formatTable is a sync.OnceValue table that reset replaces: flagged
// at the reassignment.
var formatTable = sync.OnceValues(func() (int, error) { return 2, nil })

// Network keeps its state on the instance, as the shard contract wants.
type Network struct{ users int }

var _ interface{ grow() } = (*Network)(nil)

func (n *Network) grow() { n.users += slotTable()[0] }

func reset() {
	cycleCount = 0
	ErrOverflow = errors.New("core: replaced")
	formatTable = sync.OnceValues(func() (int, error) { return 3, nil })
}
