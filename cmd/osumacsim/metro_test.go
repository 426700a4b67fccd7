package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestRunMetroShardedMatchesSerial: the metro JSON carries the digest
// the shared-kernel (serial) engine printed for this deployment, and
// its bytes are the same at GOMAXPROCS 1 and 2.
func TestRunMetroShardedMatchesSerial(t *testing.T) {
	args := []string{"-cells", "12", "-gps", "1", "-data", "4",
		"-warmup", "2", "-cycles", "3", "-json"}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var outs []string
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out.String())
	}
	if outs[0] != outs[1] {
		t.Fatalf("GOMAXPROCS 1 vs 2 diverge:\n%s\n%s", outs[0], outs[1])
	}
	if !strings.Contains(outs[0], `"Digest": 16037595342436474370`) {
		t.Fatalf("metro JSON lacks the pinned digest:\n%s", outs[0])
	}
}

func TestRunMetroTextReport(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-cells", "8", "-gps", "0", "-data", "3",
		"-warmup", "2", "-cycles", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"metro: 8 cells", "metrics digest", "forwarded / delivered"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("metro report missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "engine:") {
		t.Fatalf("metro report still names an engine:\n%s", out.String())
	}
}

func TestRunMetroFlagValidation(t *testing.T) {
	if err := run([]string{"-cells", "4", "-conformance"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-cells with -conformance accepted")
	}
	if err := run([]string{"-cells", "4", "-spans"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-cells with -spans accepted")
	}
	for _, cells := range []string{"0", "-3"} {
		if err := run([]string{"-cells", cells, "-cycles", "1", "-warmup", "0"}, &bytes.Buffer{}); err == nil {
			t.Fatalf("-cells %s accepted", cells)
		}
	}
	// Several rejected flags: one error naming all of them, in name order.
	args := []string{"-cells", "4", "-spans", "-loss", "0.5", "-http", "127.0.0.1:0", "-fixed"}
	for rep := 0; rep < 3; rep++ {
		err := run(args, &bytes.Buffer{})
		if err == nil || !strings.HasPrefix(err.Error(), "-fixed -http -loss -spans: ") {
			t.Fatalf("error %v, want one naming -fixed -http -loss -spans", err)
		}
	}
}

// TestRunFlagPaths sets every flag on its own, on one cell and on four,
// and requires it to run exactly where the selected path reads it:
// the metro path reads metroFlags, the single-cell path everything but
// -wire-delay. A flag in dependentFlags is read only beside its parent
// flag: on one cell it fails alone, naming the parent, and runs with
// the parent set.
func TestRunFlagPaths(t *testing.T) {
	dir := t.TempDir()
	values := map[string]string{
		"seed":                 "3",
		"gps":                  "1",
		"data":                 "3",
		"load":                 "0.5",
		"cycles":               "2",
		"warmup":               "1",
		"fixed":                "true",
		"loss":                 "0.1",
		"fwdloss":              "0.1",
		"no-cf2":               "true",
		"no-dynamic":           "true",
		"json":                 "true",
		"http":                 "127.0.0.1:0",
		"publish-every":        "1",
		"hold":                 "1ms",
		"spans":                "true",
		"export":               filepath.Join(dir, "export.json"),
		"conformance":          "true",
		"legacy-grants":        "true",
		"cells":                "1",
		"wire-delay":           "10ms",
		"flight-recorder":      "true",
		"dump-dir":             dir,
		"flight-cap":           "64",
		"flight-cooldown":      "5",
		"flight-fallback-rate": "0.5",
	}
	names := definedFlags(t)
	for name := range values {
		if !slices.Contains(names, name) {
			t.Errorf("table names -%s, which main.go does not define", name)
		}
	}
	for _, name := range names {
		value, ok := values[name]
		if !ok {
			t.Errorf("flag -%s is missing from the table", name)
			continue
		}
		for _, cells := range []int{1, 4} {
			args := []string{"-cycles", "2", "-warmup", "1", "-gps", "1", "-data", "3"}
			if name != "cells" {
				args = append(args, "-cells", strconv.Itoa(cells))
			} else if cells != 1 {
				continue
			}
			args = append(args, "-"+name+"="+value)
			read := metroFlags[name]
			if cells == 1 {
				read = name != "wire-delay"
			}
			parent := dependentFlags[name]
			err := run(args, &bytes.Buffer{})
			switch {
			case read && parent != "":
				if err == nil || !strings.Contains(err.Error(), "-"+name) || !strings.Contains(err.Error(), "-"+parent) {
					t.Errorf("-cells %d -%s alone: error %v, want one naming it and -%s", cells, name, err, parent)
				}
				withParent := append(args, "-"+parent+"="+values[parent])
				if err := run(withParent, &bytes.Buffer{}); err != nil {
					t.Errorf("-cells %d -%s -%s: %v", cells, name, parent, err)
				}
			case read && err != nil:
				t.Errorf("-cells %d -%s: %v", cells, name, err)
			case !read && (err == nil || !strings.Contains(err.Error(), "-"+name)):
				t.Errorf("-cells %d -%s: error %v, want one naming the unread flag", cells, name, err)
			}
		}
	}
}

// definedFlags lists the flag names main.go registers on its FlagSet.
func definedFlags(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "fs" {
			return true
		}
		// fs.Int("cells", …) and its kin: the name is the first argument.
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
		return true
	})
	if len(names) < 20 {
		t.Fatalf("found only %d flag definitions in main.go: %v", len(names), names)
	}
	return names
}
