package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// runFile is one saved benchmark run: its standard output's report and
// result lines.
type runFile struct {
	path   string
	report reportBody
	result resultLine
}

func readRunFile(path string) (runFile, error) {
	rf := runFile{path: path}
	f, err := os.Open(path)
	if err != nil {
		return rf, err
	}
	defer f.Close()
	var haveReport, haveResult bool
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r report
		if json.Unmarshal([]byte(line), &r) == nil && r.Perfbench.Workload != "" {
			rf.report, haveReport = r.Perfbench, true
			continue
		}
		var res resultLine
		if json.Unmarshal([]byte(line), &res) == nil && res.Metrics != nil {
			rf.result, haveResult = res, true
		}
	}
	if err := sc.Err(); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	if !haveReport || !haveResult {
		return rf, fmt.Errorf("%s: no perfbench report and result lines", path)
	}
	return rf, nil
}

// compareMain compares saved runs of a base and a new commit, per
// workload and metric: medians, the base's quartile spread, and the
// new/base ratio. It refuses runs whose host fingerprints differ.
func compareMain(args []string) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
		}
	}
	if sep < 1 || sep == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare base.out... -- new.out...")
		return 2
	}
	var sides [2][]runFile
	for i, paths := range [2][]string{args[:sep], args[sep+1:]} {
		for _, p := range paths {
			rf, err := readRunFile(p)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench compare:", err)
				return 2
			}
			sides[i] = append(sides[i], rf)
		}
	}
	ref := sides[0][0]
	for _, side := range sides {
		for _, rf := range side {
			if why, ok := sameHost(ref.report.Host, rf.report.Host); !ok {
				fmt.Fprintf(os.Stderr, "perfbench compare: refusing to compare %s with %s: host fingerprints differ (%s)\n", ref.path, rf.path, why)
				return 3
			}
		}
	}

	type key struct{ workload, metric string }
	vals := [2]map[key][]float64{{}, {}}
	units := map[key]string{}
	for i, side := range sides {
		for _, rf := range side {
			if !rf.result.Correct {
				fmt.Fprintf(os.Stderr, "perfbench compare: warning: %s reports %d failed cells\n", rf.path, rf.result.Failed)
			}
			for name, v := range rf.result.Metrics {
				k := key{rf.report.Workload, name}
				vals[i][k] = append(vals[i][k], v.Value)
				units[k] = v.Unit
			}
		}
	}
	var keys []key
	for k := range vals[0] {
		if _, ok := vals[1][k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].workload != keys[b].workload {
			return keys[a].workload < keys[b].workload
		}
		return keys[a].metric < keys[b].metric
	})
	fmt.Printf("%-11s %-30s %-10s %14s %9s %14s %9s %8s\n", "workload", "metric", "unit", "base_median", "base_iqr", "new_median", "new_iqr", "new/base")
	for _, k := range keys {
		b, n := vals[0][k], vals[1][k]
		bm, nm := median(b), median(n)
		fmt.Printf("%-11s %-30s %-10s %14.6g %8.1f%% %14.6g %8.1f%% %8.4f\n", k.workload, k.metric, units[k],
			bm, 100*iqrFrac(b), nm, 100*iqrFrac(n), ratio(nm, bm))
	}
	return 0
}

// iqrFrac is the distance between the first and third quartiles as a
// share of the median.
func iqrFrac(xs []float64) float64 {
	return ratio(quantile(xs, 0.75)-quantile(xs, 0.25), median(xs))
}
