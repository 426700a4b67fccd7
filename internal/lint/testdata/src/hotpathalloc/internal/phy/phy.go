// Package phy is part of the hotpathalloc fixture: a channel-model seam
// and a tracing seam, each with an allocating implementation.
package phy

// ErrorModel mirrors the real channel-model seam.
type ErrorModel interface {
	Corrupt(cw []byte) int
}

// Shuffling corrupts through a freshly allocated permutation: reachable
// from TransmitTo even behind a nil check, so it must be flagged.
type Shuffling struct{}

// Corrupt implements ErrorModel.
func (Shuffling) Corrupt(cw []byte) int {
	perm := make([]int, len(cw))
	for i := range perm {
		perm[i] = i
	}
	return len(perm)
}

// Tracer mirrors the tracing seam: the only nil check that gates.
type Tracer interface {
	Trace(what string)
}

// Recorder is a tracer that allocates per event; tracer-gated calls
// keep it off the hot path.
type Recorder struct{ events []string }

// Trace implements Tracer.
func (r *Recorder) Trace(what string) {
	r.events = append(r.events, "rx:"+what)
}
