// Package frame is part of the hotpathalloc fixture: TransmitTo is a hot
// root that reaches both seams only behind nil checks.
package frame

import "internal/phy"

// TransmitTo is a hot root named in the analyzer's root table. The
// model nil check does not exempt the channel model; the tracer nil
// check does exempt the tracer.
func TransmitTo(dst, cw []byte, model phy.ErrorModel, tr phy.Tracer) []byte {
	off := len(dst)
	dst = append(dst, cw...)
	if model != nil {
		model.Corrupt(dst[off:])
	}
	if tr != nil {
		tr.Trace("word")
	}
	return dst
}
