package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// compare prints, for two sets of runs (files written with -out, one
// report per line), every (metric, workload) pair's median and
// quartiles in each set and the change from the first set to the
// second, against the metric's bound. It refuses sets made on
// different machines: the exit code is 2 then, 1 when a bounded metric
// got worse by more than its bound, 0 otherwise.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare a.jsonl b.jsonl")
		return 2
	}
	a, err := readReports(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	b, err := readReports(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	for _, r := range append(append([]result(nil), a...), b...) {
		if r.Fingerprint.Machine != a[0].Fingerprint.Machine {
			fmt.Fprintf(os.Stderr, "benchmark compare: refusing to compare across machines:\n  %+v\n  %+v\n", a[0].Fingerprint.Machine, r.Fingerprint.Machine)
			return 2
		}
	}
	fmt.Printf("machine: %+v\n", a[0].Fingerprint.Machine)
	fmt.Printf("commits: %s -> %s\n", a[0].Fingerprint.Commit, b[0].Fingerprint.Commit)

	defs := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		defs[d.Name] = d
	}
	type key struct{ workload, metric string }
	group := func(rs []result) map[key][]float64 {
		g := map[key][]float64{}
		for _, r := range rs {
			for name, s := range r.Metrics {
				k := key{r.Workload, name}
				g[k] = append(g[k], s.Value)
			}
		}
		return g
	}
	ga, gb := group(a), group(b)
	var keys []key
	for k := range ga {
		if _, ok := gb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	worse := 0
	fmt.Printf("%-15s %-42s %10s %22s %10s %22s %8s %6s\n", "workload", "metric", "a median", "a quartiles (n)", "b median", "b quartiles (n)", "change", "bound")
	for _, k := range keys {
		sa, sb := summarize(ga[k], ""), summarize(gb[k], "")
		d := defs[k.metric]
		change := 0.0
		if sa.Value != 0 {
			change = (sb.Value - sa.Value) / sa.Value
		}
		verdict := ""
		if d.Bound > 0 {
			loss := change
			if d.Better == "higher" {
				loss = -change
			}
			verdict = fmt.Sprintf("%5.0f%%", d.Bound*100)
			if loss > d.Bound {
				verdict += " WORSE"
				worse++
			}
		}
		fmt.Printf("%-15s %-42s %10.5g %22s %10.5g %22s %+7.1f%% %s\n", k.workload, k.metric,
			sa.Value, fmt.Sprintf("%.4g..%.4g (%d)", sa.Q1, sa.Q3, sa.N),
			sb.Value, fmt.Sprintf("%.4g..%.4g (%d)", sb.Q1, sb.Q3, sb.N), change*100, verdict)
	}
	if worse > 0 {
		fmt.Printf("%d bounded metric(s) worse than their bound\n", worse)
		return 1
	}
	return 0
}

func readReports(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no report", path)
	}
	return out, nil
}
