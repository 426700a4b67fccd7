// Package core is the clean twin of the globalstate fixture: only
// constants, write-once error sentinels, write-once sync.OnceValue
// tables, blank compile-time assertions, and instance state.
package core

import (
	"errors"
	"sync"
)

// ErrOverflow is a write-once error sentinel: allowed.
var ErrOverflow = errors.New("core: queue overflow")

// slotCount is a constant: allowed.
const slotCount = 16

// slotTable is built once on first use and never reassigned: allowed,
// with or without explicit type arguments.
var slotTable = sync.OnceValue[[slotCount]int](func() [slotCount]int { return [slotCount]int{1} })

// formatTable is the two-result form: allowed.
var formatTable = sync.OnceValues(func() (int, error) { return 2, nil })

// Network keeps every piece of mutable state on the instance.
type Network struct {
	users      int
	cycleCount int
	cache      map[string]int
}

var _ interface{ grow() } = (*Network)(nil)

func (n *Network) grow() { n.users += slotTable()[0] }

func (n *Network) reset() {
	n.cycleCount = 0
	if f, err := formatTable(); err == nil {
		n.users = f
	}
	if n.cache == nil {
		n.cache = make(map[string]int)
	}
}
