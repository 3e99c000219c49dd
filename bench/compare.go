package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

// worseBy is how much worse b is than a, as a share of a, given which
// direction is better; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, for every workload, each end-to-end metric of two
// complete sets of runs with the share by which the second is worse and the
// bound BENCHMARK.json allows, and reports whether every pair is within its
// bound. Per-layer metrics are printed and not judged.
func compareFiles(w io.Writer, mf *manifest, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	for _, wl := range mf.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			return false, fmt.Errorf("workload %s is missing from one of the files", wl.Name)
		}
		if ra.InputsSHA256 != rb.InputsSHA256 {
			fmt.Fprintf(w, "%s: inputs differ (%s vs %s): other seed or other generator\n", wl.Name, ra.InputsSHA256, rb.InputsSHA256)
		}
		if rb.EndToEnd.Failed > ra.EndToEnd.Failed {
			fmt.Fprintf(w, "%s: failed requests rose from %d to %d\n", wl.Name, ra.EndToEnd.Failed, rb.EndToEnd.Failed)
			ok = false
		}
		fmt.Fprintf(w, "%-12s %-18s %12s %12s %9s %7s\n", wl.Name, "end to end", "a", "b", "worse by", "bound")
		for _, d := range mf.EndToEnd {
			va, vb := ra.EndToEnd.Metrics[d.Name].Value, rb.EndToEnd.Metrics[d.Name].Value
			worse := worseBy(va, vb, d.Better)
			verdict := ""
			if worse > d.Bound {
				verdict = "  OUTSIDE"
				ok = false
			}
			fmt.Fprintf(w, "%-12s %-18s %12.4f %12.4f %+8.1f%% %6.0f%%%s\n", wl.Name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
	}
	for _, wl := range mf.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		fmt.Fprintf(w, "%-12s %-32s %14s %14s  (not judged)\n", wl.Name, "per layer", "a", "b")
		for _, d := range mf.PerLayer {
			fmt.Fprintf(w, "%-12s %-32s %14.4f %14.4f %s\n", wl.Name, d.Name,
				ra.PerLayer.Metrics[d.Name].Value, rb.PerLayer.Metrics[d.Name].Value, d.Unit)
		}
	}
	return ok, nil
}
