// Command droidvet runs DroidFuzz's project-specific static checks: the
// determinism, poolcheck, lockorder, snapshot, atomics, checkpoint, and
// golifetime passes over the whole module. It exits nonzero
// when any un-waived finding survives, which makes it a CI gate
// (`make vet` runs it after `go vet`).
//
// Usage:
//
//	droidvet [-C dir] [-json] [-v] [package-pattern]
//
// The only accepted package pattern today is "./..." (the passes are
// whole-program by construction — closures and call graphs need every
// package anyway); it is accepted so the invocation reads like go vet.
//
// -json emits the findings as a sorted JSON array on stdout (one object per
// finding: file relative to the module root, line, col, pass, message) for
// machine consumers; under GITHUB_ACTIONS it additionally prints ::error
// workflow commands on stderr so findings render as inline annotations.
//
// -v reports per-pass wall-clock timings on stderr after the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"droidfuzz/internal/analysis"
)

func main() {
	chdir := flag.String("C", "", "run as if started in `dir`")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	verbose := flag.Bool("v", false, "report per-pass timings on stderr")
	flag.Parse()

	for _, arg := range flag.Args() {
		if arg != "./..." {
			fmt.Fprintf(os.Stderr, "droidvet: unsupported package pattern %q (the passes are whole-module; use ./... or nothing)\n", arg)
			os.Exit(2)
		}
	}

	dir := *chdir
	if dir == "" {
		dir = "."
	}
	root, err := findModuleRoot(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "droidvet: %v\n", err)
		os.Exit(2)
	}

	prog, err := analysis.Load(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "droidvet: %v\n", err)
		os.Exit(2)
	}
	cfg := analysis.DefaultConfig()

	diags, timings := analysis.AnalyzeTimed(prog, cfg)
	if *verbose {
		for _, t := range timings {
			fmt.Fprintf(os.Stderr, "droidvet: pass %-12s %s\n", t.Pass, t.Duration)
		}
	}
	if *jsonOut {
		emitJSON(root, diags)
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "droidvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// jsonFinding is the stable machine-readable shape of one finding. File is
// slash-separated and relative to the module root so output is identical
// across checkouts.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
}

// emitJSON prints the findings — already sorted by Analyze — as one JSON
// array on stdout, and mirrors them as GitHub workflow ::error commands on
// stderr when running under Actions so they render as inline annotations.
func emitJSON(root string, diags []analysis.Diagnostic) {
	out := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		out = append(out, jsonFinding{
			File:    file,
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Pass:    d.Pass,
			Message: d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "droidvet: %v\n", err)
		os.Exit(2)
	}
	if os.Getenv("GITHUB_ACTIONS") == "true" {
		for _, f := range out {
			// Workflow-command syntax: %0A escapes would only matter for
			// multi-line messages, which droidvet never emits.
			fmt.Fprintf(os.Stderr, "::error file=%s,line=%d,col=%d,title=droidvet %s::%s\n",
				f.File, f.Line, f.Col, f.Pass, f.Message)
		}
	}
}

// findModuleRoot walks upward from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found in or above %s", abs)
		}
		d = parent
	}
}
