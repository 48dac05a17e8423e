package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteTable dumps every metric in the registry as an aligned
// plain-text table: counters and gauges first, then histograms with
// their count/mean/p50/p95/p99/max, then per-disk families. Names are
// sorted, so two dumps of equally named registries have identical
// structure — the property the CLI golden test pins down.
func (r *Registry) WriteTable(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tw := &tableWriter{w: w}
	tw.printf("%-44s %s\n", "metric", "value")
	for _, name := range sortedKeys(r.cs) {
		tw.printf("%-44s %d\n", name, r.cs[name].Value())
	}
	for _, name := range sortedKeys(r.gs) {
		tw.printf("%-44s %d\n", name, r.gs[name].Value())
	}
	for _, name := range sortedKeys(r.hs) {
		h := r.hs[name]
		tw.printf("%-44s count=%d mean=%s p50=%s p95=%s p99=%s max=%s\n",
			name, h.Count(), fmtDur(h.Mean()),
			fmtDur(h.Percentile(50)), fmtDur(h.Percentile(95)),
			fmtDur(h.Percentile(99)), fmtDur(h.Max()))
	}
	for _, name := range sortedKeys(r.cfams) {
		f := r.cfams[name]
		var parts []string
		for i, c := range f.list() {
			parts = append(parts, fmt.Sprintf("%s%d=%d", f.label, i, c.Value()))
		}
		tw.printf("%-44s %s (sum=%d)\n", name, strings.Join(parts, " "), (*CounterFamily)(f).Sum())
	}
	for _, name := range sortedKeys(r.gfams) {
		f := r.gfams[name]
		var parts []string
		for i, g := range f.list() {
			parts = append(parts, fmt.Sprintf("%s%d=%d", f.label, i, g.Value()))
		}
		tw.printf("%-44s %s (sum=%d)\n", name, strings.Join(parts, " "), (*GaugeFamily)(f).Sum())
	}
	for _, name := range sortedKeys(r.hfams) {
		f := r.hfams[name]
		for i, h := range f.list() {
			tw.printf("%-44s count=%d p50=%s p99=%s max=%s\n",
				fmt.Sprintf("%s{%s%d}", name, f.label, i),
				h.Count(), fmtDur(h.Percentile(50)), fmtDur(h.Percentile(99)), fmtDur(h.Max()))
		}
	}
	return tw.err
}

// WriteCSV dumps the registry as CSV with the fixed header
// kind,name,label,field,value — one row per scalar, one row per
// histogram summary field, one row per family member.
func (r *Registry) WriteCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tw := &tableWriter{w: w}
	tw.printf("kind,name,label,field,value\n")
	for _, name := range sortedKeys(r.cs) {
		tw.printf("counter,%s,,value,%d\n", name, r.cs[name].Value())
	}
	for _, name := range sortedKeys(r.gs) {
		tw.printf("gauge,%s,,value,%d\n", name, r.gs[name].Value())
	}
	for _, name := range sortedKeys(r.hs) {
		h := r.hs[name]
		tw.printf("histogram,%s,,count,%d\n", name, h.Count())
		tw.printf("histogram,%s,,sum_ns,%d\n", name, int64(h.Sum()))
		tw.printf("histogram,%s,,p50_ns,%d\n", name, int64(h.Percentile(50)))
		tw.printf("histogram,%s,,p95_ns,%d\n", name, int64(h.Percentile(95)))
		tw.printf("histogram,%s,,p99_ns,%d\n", name, int64(h.Percentile(99)))
		tw.printf("histogram,%s,,max_ns,%d\n", name, int64(h.Max()))
	}
	for _, name := range sortedKeys(r.cfams) {
		f := r.cfams[name]
		for i, c := range f.list() {
			tw.printf("counter_family,%s,%s%d,value,%d\n", name, f.label, i, c.Value())
		}
	}
	for _, name := range sortedKeys(r.gfams) {
		f := r.gfams[name]
		for i, g := range f.list() {
			tw.printf("gauge_family,%s,%s%d,value,%d\n", name, f.label, i, g.Value())
		}
	}
	for _, name := range sortedKeys(r.hfams) {
		f := r.hfams[name]
		for i, h := range f.list() {
			tw.printf("histogram_family,%s,%s%d,count,%d\n", name, f.label, i, h.Count())
			tw.printf("histogram_family,%s,%s%d,p99_ns,%d\n", name, f.label, i, int64(h.Percentile(99)))
		}
	}
	return tw.err
}

// RenderTree renders the trace's span tree with box-drawing branches,
// one span per line as "name duration [error]":
//
//	query <3,4>..<9,9> 12.40ms
//	├─ admit 0.21ms
//	└─ exec 12.11ms
//	   ├─ disk 0 11.80ms
//	   │  └─ read b17 attempt 1 11.70ms
//	   │     └─ hedge d4 1.35ms
//	   └─ disk 3 2.10ms
func (t *Trace) RenderTree(w io.Writer) error {
	if t == nil {
		return nil
	}
	tw := &tableWriter{w: w}
	snap := t.root.snap()
	renderSpan(tw, snap, "", "")
	return tw.err
}

func renderSpan(tw *tableWriter, s spanSnap, branch, indent string) {
	dur := s.end - s.start
	line := fmt.Sprintf("%s %s", s.name, fmtDur(dur))
	if !s.ended {
		line = s.name + " (unfinished)"
	}
	if s.errmsg != "" {
		line += " [" + s.errmsg + "]"
	}
	tw.printf("%s%s\n", branch, line)
	for i, c := range s.children {
		last := i == len(s.children)-1
		childBranch, childIndent := "├─ ", "│  "
		if last {
			childBranch, childIndent = "└─ ", "   "
		}
		renderSpan(tw, c, indent+childBranch, indent+childIndent)
	}
}

// fmtDur renders a duration as fixed-point milliseconds — the unit
// every experiment table in this repo speaks.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}

// tableWriter accumulates the first write error so dump loops stay
// linear.
type tableWriter struct {
	w   io.Writer
	err error
}

func (tw *tableWriter) printf(format string, args ...any) {
	if tw.err != nil {
		return
	}
	_, tw.err = fmt.Fprintf(tw.w, format, args...)
}
