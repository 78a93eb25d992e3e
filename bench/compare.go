package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// compareMain reads two result-set files (JSON lines written by -out) and,
// for every workload and metric both hold, prints each set's median and
// quartiles and whether the medians agree within the metric's bound from
// the benchmark definition. Metrics without a bound are printed but not
// judged. It returns 1 when any bounded pair disagrees.
func compareMain(args []string, boundsPath string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: sclload -compare [-bounds BENCHMARK.json] a.jsonl b.jsonl")
		return 2
	}
	bounds, err := readBounds(boundsPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sclload:", err)
		return 2
	}
	a, err := readSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "sclload:", err)
		return 2
	}
	b, err := readSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "sclload:", err)
		return 2
	}
	disagree := 0
	fmt.Printf("%-16s %-26s %12s %25s %12s %25s %6s %s\n", "workload", "metric", "median(a)", "[q1 q3](a)", "median(b)", "[q1 q3](b)", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range append(endToEnd, perLayer...) {
			va, vb := a[wl.name][d.name], b[wl.name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			bound, gated := bounds[d.name]
			verdict, boundText := "report", "-"
			if gated {
				boundText = fmt.Sprint(bound)
				if agree(qa[1], qb[1], bound) {
					verdict = "agree"
				} else {
					verdict = "DISAGREE"
					disagree++
				}
			}
			fmt.Printf("%-16s %-26s %12.6g [%11.6g %11.6g] %12.6g [%11.6g %11.6g] %6s %s\n",
				wl.name, d.name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], boundText, verdict)
		}
	}
	if disagree > 0 {
		fmt.Printf("%d pair(s) disagree\n", disagree)
		return 1
	}
	return 0
}

// agree reports whether two medians differ by at most bound as a share of
// the first.
func agree(a, b, bound float64) bool {
	return math.Abs(b-a) <= bound*math.Abs(a)
}

// quartiles returns the first quartile, median and third quartile, the
// quartiles by the exclusive method (Python's statistics.quantiles
// default), so spreads read the same as there.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return [3]float64{q(1), median(s), q(3)}
}

func readBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bounds: %w", err)
	}
	var def struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		return nil, fmt.Errorf("bounds: %s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range def.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// readSet gathers a result-set file into workload → metric → values.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("result set: %w", err)
	}
	defer f.Close()
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("result set %s: %w", path, err)
		}
		for wl, ms := range rec.Results {
			if set[wl] == nil {
				set[wl] = map[string][]float64{}
			}
			for m, v := range ms {
				set[wl][m] = append(set[wl][m], v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("result set %s: %w", path, err)
	}
	return set, nil
}
