// Command sclscenario runs declarative workload scenarios
// (internal/scenario) against the scl locks from the command line.
//
// Modes:
//
//	sclscenario -mode list [-dir internal/scenario/testdata]
//	    list the corpus: name, lock, entities, scripted acquires.
//	sclscenario -mode run -scenario <file|name> [-substrate sim|check|wall|all]
//	    compile and execute one scenario; prints the seed, the
//	    per-substrate summary table, and any assertion failures.
//	sclscenario -mode oracle [-dir ...] [-scenario <file|name>]
//	    the corpus-wide differential oracle: every scenario runs on
//	    the sim and check substrates and the results are compared
//	    grant-by-grant (modulo each scenario's documented allow
//	    list).
//	sclscenario -mode replay -scenario <file|name> -seed <N>
//	    recompile with an explicit seed (as printed by run/oracle)
//	    and re-execute the deterministic substrates — byte-identical
//	    output, for reproducing a reported divergence.
//
// Exit status is non-zero on assertion failure, undocumented
// divergence, or error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"scl/internal/scenario"
)

func main() {
	var (
		mode      = flag.String("mode", "run", "list, run, oracle, or replay")
		dir       = flag.String("dir", "internal/scenario/testdata", "scenario corpus directory")
		file      = flag.String("scenario", "", "scenario file path, or bare name resolved in -dir")
		substrate = flag.String("substrate", "all", "run mode: sim, check, wall, or all")
		seed      = flag.Int64("seed", 0, "seed override (replay mode; 0 = the scenario's own)")
	)
	flag.Parse()

	switch *mode {
	case "list":
		list(*dir)
	case "run":
		runOne(resolve(*dir, *file), *substrate, *seed)
	case "oracle":
		oracleMode(*dir, *file)
	case "replay":
		runOne(resolve(*dir, *file), "sim,check", *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown -mode %q\n", *mode)
		os.Exit(2)
	}
}

// resolve turns a bare scenario name into a corpus path.
func resolve(dir, name string) string {
	if name == "" {
		fmt.Fprintln(os.Stderr, "missing -scenario")
		os.Exit(2)
	}
	if _, err := os.Stat(name); err == nil {
		return name
	}
	p := filepath.Join(dir, name)
	if !strings.HasSuffix(p, scenario.CorpusExt) {
		p += scenario.CorpusExt
	}
	return p
}

// list prints the corpus inventory.
func list(dir string) {
	corpus, err := scenario.LoadCorpus(dir)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-18s %-6s %4s %8s %9s %7s  %s\n", "scenario", "lock", "keys", "entities", "acquires", "seed", "allow")
	for _, s := range corpus {
		c, err := scenario.Compile(s)
		if err != nil {
			fatal(err)
		}
		allow := strings.Join(s.Allow, ",")
		if allow == "" {
			allow = "-"
		}
		fmt.Printf("%-18s %-6s %4d %8d %9d %7d  %s\n", s.Name, s.Lock, s.KeyCount(), s.Entities(), c.TotalAcquires(), s.Seed, allow)
	}
}

// runOne executes one scenario on the requested substrates.
func runOne(path, substrates string, seed int64) {
	s, err := scenario.LoadFile(path)
	if err != nil {
		fatal(err)
	}
	if seed == 0 {
		seed = s.Seed
	}
	c, err := scenario.CompileSeed(s, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("seed %d (replay: sclscenario -mode replay -scenario %s -seed %d)\n", seed, s.Name, seed)
	which := strings.Split(substrates, ",")
	if substrates == "all" {
		which = []string{scenario.SubstrateSim, scenario.SubstrateCheck, scenario.SubstrateWall}
	}
	bad := false
	for _, sub := range which {
		res, err := scenario.Run(c, sub)
		if err != nil {
			fmt.Printf("substrate %s ERROR %v\n", sub, err)
			bad = true
			continue
		}
		fmt.Print(scenario.Summary(c, sub, res))
		for _, aerr := range scenario.EvalAsserts(s, res, sub) {
			fmt.Printf("  ASSERT FAILED: %v\n", aerr)
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}

// oracleMode runs the corpus-wide (or single-scenario) differential
// oracle.
func oracleMode(dir, file string) {
	var corpus []*scenario.Scenario
	if file != "" {
		s, err := scenario.LoadFile(resolve(dir, file))
		if err != nil {
			fatal(err)
		}
		corpus = []*scenario.Scenario{s}
	} else {
		var err error
		corpus, err = scenario.LoadCorpus(dir)
		if err != nil {
			fatal(err)
		}
	}
	bad := false
	for _, s := range corpus {
		c, err := scenario.Compile(s)
		if err != nil {
			fatal(err)
		}
		allowed, undocumented, err := scenario.Diff(c)
		switch {
		case err != nil:
			fmt.Printf("%-18s ERROR %v\n", s.Name, err)
			bad = true
		case len(undocumented) > 0:
			fmt.Printf("%-18s DIVERGED (seed %d)\n", s.Name, c.Seed)
			for _, d := range undocumented {
				fmt.Printf("    %v\n", d)
			}
			bad = true
		default:
			fmt.Printf("%-18s ok (%d documented divergences)\n", s.Name, len(allowed))
		}
	}
	if bad {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sclscenario:", err)
	os.Exit(1)
}
