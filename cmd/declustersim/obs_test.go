package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"decluster/internal/experiments"
	"decluster/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from this run's output")

// obsSoak runs one tiny instrumented chaos soak and returns its sink.
// The golden tests compare the *structure* of the dumps (metric names,
// labels, field layout) — values are normalized away — so the soak only
// needs to register every serving metric, which construction alone
// guarantees.
func obsSoak(t *testing.T, traceN int) *obs.Sink {
	t.Helper()
	sink := obs.NewSink()
	if traceN > 0 {
		sink.EnableTracing(traceN)
	}
	chaos := experiments.ChaosConfig{
		GridSide: 8, Disks: 4, Records: 256, Clients: 4,
		Duration: 40 * time.Millisecond, BaseLatency: 50 * time.Microsecond,
		Offset: 2, Methods: []string{"HCAM"},
		Obs: sink,
	}
	var buf bytes.Buffer
	if err := run(&buf, "chaos", settings{opt: fastOpt(), chaos: chaos}); err != nil {
		t.Fatal(err)
	}
	return sink
}

// normalizeDump replaces every metric value with a placeholder while
// keeping names, labels, and field structure: durations become "X",
// "=<int>" fields become "=N", and trailing integers (counter rows,
// CSV value columns) become "N".
func normalizeDump(s string) string {
	s = regexp.MustCompile(`-?\d+\.\d+ms`).ReplaceAllString(s, "X")
	s = regexp.MustCompile(`=-?\d+`).ReplaceAllString(s, "=N")
	s = regexp.MustCompile(`(?m)[ ,]-?\d+$`).ReplaceAllStringFunc(s, func(m string) string {
		return m[:1] + "N"
	})
	return s
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch (re-run with -update if the change is intended)\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestMetricsTableGolden(t *testing.T) {
	sink := obsSoak(t, 0)
	var buf bytes.Buffer
	if err := dumpObs(&buf, sink, "table", 0); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics_table.golden", normalizeDump(buf.String()))
}

func TestMetricsCSVGolden(t *testing.T) {
	sink := obsSoak(t, 0)
	var buf bytes.Buffer
	if err := dumpObs(&buf, sink, "csv", 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "kind,name,label,field,value\n") {
		t.Fatalf("CSV header missing:\n%s", strings.SplitN(out, "\n", 2)[0])
	}
	checkGolden(t, "metrics_csv.golden", normalizeDump(out))
}

func TestTraceDump(t *testing.T) {
	sink := obsSoak(t, 3)
	var buf bytes.Buffer
	if err := dumpObs(&buf, sink, "", 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== slowest") {
		t.Fatalf("trace header missing:\n%s", out)
	}
	for _, want := range []string{"query", "admit", "exec", "└─"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace dump missing %q:\n%s", want, out)
		}
	}
}

func TestDumpObsNilSink(t *testing.T) {
	var buf bytes.Buffer
	if err := dumpObs(&buf, nil, "table", 5); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil sink produced output: %q", buf.String())
	}
}
