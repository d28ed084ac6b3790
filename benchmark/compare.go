package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// readRecords loads the untraced runs of a -out file, grouped by
// workload.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]result)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

func values(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	sort.Float64s(out)
	return out
}

// quartiles returns the first, second and third quartile of sorted
// values the way Python's statistics.quantiles(values, n=4) does, so a
// spread computed here is the spread the driver computes. It needs at
// least two values.
func quartiles(sorted []float64) (q [3]float64) {
	n := len(sorted)
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		q[i-1] = (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q
}

// verdict judges one end-to-end metric on one workload: the change's
// median against the base's, by the metric's direction and bound. A
// metric whose base runs spread wider than its bound cannot resolve a
// difference of that size, and is reported as such instead of as
// unchanged.
func verdict(spec metricSpec, base, change []float64) (string, string) {
	if len(base) == 0 || len(change) == 0 {
		return "missing", fmt.Sprintf("%d base runs, %d change runs", len(base), len(change))
	}
	mb, mc := median(base), median(change)
	detail := fmt.Sprintf("change/base = %.4f (base %.6g %s over %d runs, change %.6g over %d)",
		mc/mb, mb, spec.Unit, len(base), mc, len(change))
	if len(base) >= 2 {
		q := quartiles(base)
		spread := (q[2] - q[0]) / mb
		detail += fmt.Sprintf(", base spread %.4f", spread)
		if spread > spec.Bound {
			return "unresolved", detail
		}
	}
	worse := (mc - mb) / mb
	if spec.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > spec.Bound:
		return "worse", detail
	case worse < -spec.Bound:
		return "better", detail
	}
	return "within", detail
}

// compareFiles prints one row per end-to-end metric and workload and
// returns 1 if any row is worse (or has runs on one side only).
func compareFiles(basePath, changePath string) int {
	bf, err := loadBenchmarkFile(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	base, err := readRecords(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	change, err := readRecords(changePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	code := 0
	for _, w := range bf.Workloads {
		if len(base[w.Name]) == 0 && len(change[w.Name]) == 0 {
			continue
		}
		for _, spec := range bf.EndToEnd {
			v, detail := verdict(spec, values(base[w.Name], spec.Name), values(change[w.Name], spec.Name))
			fmt.Printf("%-13s %-9s %-10s bound %-6g %s\n", w.Name, spec.Name, v, spec.Bound, detail)
			if v == "worse" || v == "missing" {
				code = 1
			}
		}
	}
	return code
}
