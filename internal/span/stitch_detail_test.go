package span

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/osu-netlab/osumac/internal/core"
)

// refDetailInt is detailInt written with strings.Fields and
// fmt.Sscanf: the reference FuzzStitchDetail holds detailInt to.
func refDetailInt(detail, key string) (int, bool) {
	prefix := key + "="
	for _, tok := range strings.Fields(detail) {
		if !strings.HasPrefix(tok, prefix) {
			continue
		}
		var v int
		if _, err := fmt.Sscanf(tok[len(prefix):], "%d", &v); err == nil {
			return v, true
		}
	}
	return 0, false
}

// refFragDetail is fragDetail written with fmt.Sscanf.
func refFragDetail(detail string) (msg, frag, total int, ok bool) {
	if _, err := fmt.Sscanf(detail, "msg=%d frag=%d/%d", &msg, &frag, &total); err != nil {
		return 0, 0, 0, false
	}
	return msg, frag, total, true
}

// FuzzStitchDetail checks that the strconv detail parsers return what
// their fmt references return, values and ok alike, on any input.
func FuzzStitchDetail(f *testing.F) {
	operands := [][3]int64{
		{17, 344, 3},
		{0, 0, 0},
		{-5, -1, -2},
		{math.MaxInt64, math.MinInt64, 1234567890123456789},
	}
	for dk := core.DetailMsgBytes; dk <= core.DetailForwardFrag; dk++ {
		for _, a := range operands {
			f.Add(core.TraceEvent{DK: dk, Arg0: a[0], Arg1: a[1], Arg2: a[2]}.DetailText())
		}
	}
	for _, s := range []string{
		"msg=+5 frag= 1/ 2",
		"msg=5 \t frag=1/2 (retx)",
		"msg=5\nfrag=1/2",
		"msg=5\r\nfrag=1/2",
		"msg=\r5 frag=1/ 2",
		"msg=5frag=1/2",
		"msg=99999999999999999999 frag=1/2",
		"msg=1_0 frag=1/2",
		"msg=- frag=1/2",
		"x msg=3 bytes=40x msg=4",
		"msg= bytes=7 msg=8",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, key := range []string{"msg", "bytes", "frag"} {
			v, ok := detailInt(s, key)
			if wv, wok := refDetailInt(s, key); v != wv || ok != wok {
				t.Fatalf("detailInt(%q, %q) = %d, %v; fmt reference %d, %v", s, key, v, ok, wv, wok)
			}
		}
		msg, frag, total, ok := fragDetail(s)
		wm, wf, wt, wok := refFragDetail(s)
		if msg != wm || frag != wf || total != wt || ok != wok {
			t.Fatalf("fragDetail(%q) = %d, %d, %d, %v; fmt reference %d, %d, %d, %v",
				s, msg, frag, total, ok, wm, wf, wt, wok)
		}
	})
}
