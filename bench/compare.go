package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// quartiles returns the first, second and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// which is how the benchmark's acceptance spread is defined.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the first and third quartile as a
// share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

type verdict string

const (
	same       verdict = "same"
	improved   verdict = "improved"
	regression verdict = "REGRESSION"
	unresolved verdict = "unresolved"
)

// judge compares one end-to-end metric of two reports: worse is how far
// b is on the wrong side of a as a share of a; noise is the larger of
// the two reports' own sample spreads.
func judge(m boundedMetric, a, b reportMetric) (worse, noise float64, v verdict) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
		if m.Better == "higher" {
			worse = -worse
		}
	}
	noise = spread(a.Samples)
	if s := spread(b.Samples); s > noise {
		noise = s
	}
	switch {
	case noise > m.Bound:
		v = unresolved
	case worse > m.Bound:
		v = regression
	case worse < -m.Bound:
		v = improved
	default:
		v = same
	}
	return worse, noise, v
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain prints one row per workload and end-to-end metric —
// workload / metric / A / B / direction / verdict — and returns 1 when
// any row is a regression or B has failed operations.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: declusterbench compare A.json B.json")
		return 2
	}
	a, err := readReport(args[0])
	if err == nil {
		var b *report
		if b, err = readReport(args[1]); err == nil {
			return compareReports(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "declusterbench:", err)
	return 2
}

func compareReports(a, b *report) int {
	// Window length, window count and set-up sample count all follow from
	// these; reports taken at different values measure different things.
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Rounds != b.Rounds {
		fmt.Fprintf(os.Stderr, "declusterbench: reports are not comparable: seed %d/%d, seconds %g/%g, rounds %d/%d\n",
			a.Seed, b.Seed, a.Seconds, b.Seconds, a.Rounds, b.Rounds)
		return 2
	}
	status := 0
	fmt.Printf("%-18s %-13s %12s %12s %-7s %8s %8s %7s  %s\n", "workload", "metric", "A", "B", "better", "worse%", "spread%", "bound%", "verdict")
	for _, ws := range workloadSpecs {
		wa, wb := a.Workloads[ws.Name], b.Workloads[ws.Name]
		if wa == nil || wb == nil {
			fmt.Printf("%-18s missing from one report\n", ws.Name)
			status = 1
			continue
		}
		for _, m := range endToEnd {
			worse, noise, v := judge(m, wa.EndToEnd[m.Name], wb.EndToEnd[m.Name])
			if v == regression {
				status = 1
			}
			fmt.Printf("%-18s %-13s %12.4f %12.4f %-7s %8.1f %8.1f %7.0f  %s\n", ws.Name, m.Name,
				wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value, m.Better, 100*worse, 100*noise, 100*m.Bound, v)
		}
		if wb.Failed > 0 {
			status = 1
			fmt.Printf("%-18s %-13s %12d %12d %-7s %36s\n", ws.Name, "failed", wa.Failed, wb.Failed, "lower", regression)
		}
	}
	return status
}
