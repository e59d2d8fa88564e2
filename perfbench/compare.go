package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// record is one run as --record appends it to a result set.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

// spec is the part of BENCHMARK.json that compare reads.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics: no bound
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "%s\n", b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Result == nil {
			return nil, fmt.Errorf("%s:%d: not a result record (%v)", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric's values per workload from a result set.
func values(recs []record, metric string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range recs {
		if m, ok := r.Result.Metrics[metric]; ok {
			out[r.Workload] = append(out[r.Workload], m.Value)
		}
	}
	return out
}

// verdict judges one workload × metric: how far the change's median
// moved from the parent's, as a share of the parent's median with
// positive meaning worse, and what that move means under the bound.
// A parent whose own spread is wider than the bound cannot resolve a
// move, unless every change run beats every parent run.
func verdict(m metricSpec, parent, change []float64) (worse float64, v string) {
	p1, pm, p3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	worse = (cm - pm) / math.Abs(pm)
	if m.Better == "higher" {
		worse = -worse
	}
	if m.Bound == 0 {
		return worse, "-"
	}
	if (p3-p1)/math.Abs(pm) > m.Bound {
		if allBetter(m, change, parent) {
			return worse, "better"
		}
		return worse, "unresolved"
	}
	switch {
	case worse > m.Bound:
		return worse, "WORSE"
	case worse < -m.Bound:
		return worse, "better"
	}
	return worse, "same"
}

// allBetter reports whether every value of a beats every value of b.
func allBetter(m metricSpec, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "higher") != (x > y) || x == y {
				return false
			}
		}
	}
	return true
}

// compare prints, for each workload × metric, both result sets'
// medians and quartiles and the verdict; it reports whether any
// end-to-end metric got worse by more than its bound.
func compare(w io.Writer, sp *spec, parent, change []record) (regressed bool) {
	fmt.Fprintf(w, "%-17s %-34s %-6s %34s %34s %8s  %s\n",
		"workload", "metric", "unit", "parent median [q1 q3] n", "change median [q1 q3] n", "worse", "verdict")
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		pv, cv := values(parent, m.Name), values(change, m.Name)
		var wls []string
		for wl := range pv {
			if len(cv[wl]) > 0 {
				wls = append(wls, wl)
			}
		}
		sort.Strings(wls)
		for _, wl := range wls {
			worse, v := verdict(m, pv[wl], cv[wl])
			if v == "WORSE" {
				regressed = true
			}
			fmt.Fprintf(w, "%-17s %-34s %-6s %34s %34s %+7.1f%%  %s\n",
				wl, m.Name, m.Unit, describe(pv[wl]), describe(cv[wl]), 100*worse, v)
		}
	}
	return regressed
}

func describe(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g %.5g] %d", med, q1, q3, len(xs))
}
