// Command sgxtrace inspects run profiles captured by sgxbench with -trace or
// -metrics (the .profile.json export).
//
// summarize prints, per cell: the terminal run counters, the EPC fault
// breakdown, the hottest faulting pages, a fault timeline over simulated
// time, and a reconciliation of the three independent records of EPC
// activity (the event stream, the live epc.* counters and the terminal
// run.* counters) — any disagreement is a simulator bug and exits non-zero.
// A per-policy overhead table aggregates the cells at the end.
//
// diff aligns two profiles by cell label and reports per-cell cycle,
// check and fault deltas plus the per-policy aggregate movement — for
// comparing two builds, two configurations, or disabled-vs-enabled runs.
//
// Usage:
//
//	sgxtrace summarize run.profile.json [-top 5] [-cell LABEL]
//	sgxtrace diff old.profile.json new.profile.json
package main

import (
	"flag"
	"fmt"
	"os"

	"sgxbounds/internal/telemetry"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sgxtrace summarize <profile.json> [-top N] [-cell LABEL]")
	fmt.Fprintln(os.Stderr, "       sgxtrace diff <old.profile.json> <new.profile.json>")
	os.Exit(2)
}

func load(path string) *telemetry.RunProfile {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	rp, err := telemetry.ReadRunProfile(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return rp
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "summarize":
		fs := flag.NewFlagSet("summarize", flag.ExitOnError)
		top := fs.Int("top", 5, "hottest faulting pages to list per cell")
		cell := fs.String("cell", "", "summarize only the cell with this label")
		// Accept the profile path before or after the flags.
		var paths []string
		for len(args) > 0 {
			if args[0] != "" && args[0][0] != '-' {
				paths = append(paths, args[0])
				args = args[1:]
				continue
			}
			fs.Parse(args)
			args = fs.Args()
		}
		if len(paths) != 1 {
			usage()
		}
		ok, err := Summarize(os.Stdout, load(paths[0]), *top, *cell)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !ok {
			fmt.Fprintln(os.Stderr, "sgxtrace: reconciliation FAILED (see MISMATCH lines)")
			os.Exit(1)
		}
	case "diff":
		if len(args) != 2 {
			usage()
		}
		if err := Diff(os.Stdout, load(args[0]), load(args[1])); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		usage()
	}
}
