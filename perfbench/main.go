// Command perfbench is qmatch's end-to-end benchmark. It starts qmatchd
// in-process (the production handler behind a loopback listener, default
// configuration, in-memory registry), drives it with one of four seeded
// workloads, checks every response against the library's answer, and
// prints the result as one JSON object on the last line of stdout.
//
//	perfbench -workload protein-match -seed 1 -seconds 10 -trace 0
//
// With -trace 1 it makes the traced run instead: the same inputs replayed
// through each layer's public functions under spans recorded here, which
// gives the per-layer metrics and a Perfetto-loadable trace file. See
// README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// workloads are the traffic mixes a run can drive; BENCHMARK.json and
// README.md say why each is in the benchmark.
var workloads = []string{"protein-match", "serve-mix", "registry-search", "job-grid"}

const (
	setupRuns  = 3 // set-ups per run; setup_s is their median
	maxWindows = 30
	minWindow  = 100
	mixClients = 2 // open-loop client goroutines
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// gated are the end-to-end metrics BENCHMARK.json bounds.
var gated = []string{"latency_p50_ms", "cells_per_s", "peak_rss_mb", "setup_s"}

// outcome is what a run reports on its last line.
type outcome struct {
	metrics           map[string]metric
	attempted, failed int
	checkErr          error // the first failed or wrong response, or a failed replay check
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	out      string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: protein-match, serve-mix, registry-search or job-grid")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 makes the traced run, which reports per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository checkout (testdata/ is read from it)")
	flag.StringVar(&o.out, "out", ".bench_build/traces", "directory for trace files")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run makes one run and prints its row and result; a failed check still
// prints the result (correct: false) and then fails the process.
func run(o options) error {
	if !slices.Contains(workloads, o.workload) {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	d := time.Duration(o.seconds * float64(time.Second))
	in, err := generate(o.workload, o.seed, o.root, d)
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	row := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"host": fingerprint(o.root),
	}
	measureRun := untraced
	if o.trace {
		measureRun = traced
	}
	out, err := measureRun(o, in, d, row)
	if err != nil {
		return err
	}
	if out.checkErr != nil {
		row["first_failure"] = out.checkErr.Error()
	}
	rowJSON, err := json.Marshal(row)
	if err != nil {
		return err
	}
	fmt.Printf("row %s\n", rowJSON)
	last, err := json.Marshal(map[string]any{
		"correct": out.checkErr == nil && out.failed == 0, "attempted": out.attempted, "failed": out.failed,
		"metrics": out.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return out.checkErr
}

// setup starts a fresh server, registers the workload's corpus and sends
// its warm-up, checking every answer. Its duration is one setup_s sample.
func setup(in *inputs) (*server, time.Duration, error) {
	start := time.Now()
	s, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	for _, r := range append(append([]*request(nil), in.setup...), in.warm...) {
		if res := s.exec(in, r); res.err != nil {
			s.close()
			return nil, 0, fmt.Errorf("set-up %s %s: %w", r.method, r.path, res.err)
		}
	}
	return s, time.Since(start), nil
}

// measure runs the workload's stream for d: one closed-loop client, or the
// open-loop schedule from arrival index *next on.
func measure(s *server, in *inputs, next *int, d time.Duration) phase {
	if in.arrivals != nil {
		lo := *next
		hi := arrivalsWithin(in, lo, d)
		*next = hi
		return openLoop(s, in, lo, hi, mixClients)
	}
	return closedLoop(s, in, next, d)
}

func untraced(o options, in *inputs, d time.Duration, row map[string]any) (outcome, error) {
	var setups []float64
	var s *server
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			s.close()
		}
		var sd time.Duration
		var err error
		if s, sd, err = setup(in); err != nil {
			return outcome{}, err
		}
		setups = append(setups, sd.Seconds())
	}
	defer s.close()
	// Start the measured phase from the live heap, so its peak RSS is the
	// server's under this load and not set-up garbage.
	runtime.GC()
	debug.FreeOSMemory()
	stopRSS := rssPeak()
	next := 0
	ph := measure(s, in, &next, d)
	peakRSS := stopRSS()
	lats := ph.latenciesMs()
	if len(lats) == 0 {
		return outcome{nil, len(ph.recs), ph.failed(), firstErr(ph)}, nil
	}
	secs := ph.elapsed.Seconds()
	windows := windowed(ph, d)
	// Every end-to-end metric is printed in the row; the result line
	// carries the ones BENCHMARK.json gates (gated), which stay within
	// their bounds from run to run on a shared 2-CPU host. The tail
	// percentiles and the request rate move with the host's CPU steal.
	all := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"latency_p50_ms": {windowPercentile(windows, 0.50), "ms"},
		"latency_p90_ms": {windowPercentile(windows, 0.90), "ms"},
		"latency_p99_ms": {percentile(lats, 0.99), "ms"},
		"throughput_rps": {float64(len(lats)) / secs, "1/s"},
		"cells_per_s":    {float64(ph.cells()) / secs, "1/s"},
		"failed_frac":    {float64(ph.failed()) / float64(len(ph.recs)), "ratio"},
		"peak_rss_mb":    {peakRSS, "MB"},
	}
	m := map[string]metric{}
	for _, k := range gated {
		m[k] = all[k]
	}
	var late []float64
	for _, r := range ph.recs {
		late = append(late, ms(r.late))
	}
	row["metrics"] = all
	row["samples"] = len(lats)
	row["windows"] = len(windows)
	row["setup_runs_s"] = setups
	row["percentile_supported"] = map[string]bool{
		"p50": supported(len(lats), 0.5), "p90": supported(len(lats), 0.9), "p99": supported(len(lats), 0.99),
	}
	row["loadgen_late_p99_ms"] = percentile(late, 0.99)
	row["elapsed_s"] = secs
	return outcome{m, len(ph.recs), ph.failed(), firstErr(ph)}, nil
}

// windowed splits a phase's successful latencies into consecutive windows
// by send time when there are enough samples for each window to support
// its own p90 (minWindow samples); otherwise the whole phase is one window.
// A noisy stretch of a run then moves one window's reading, not the
// run's median.
func windowed(ph phase, d time.Duration) [][]float64 {
	n := len(ph.latenciesMs())
	w := min(maxWindows, n/minWindow)
	if w < 3 {
		return [][]float64{ph.latenciesMs()}
	}
	out := make([][]float64, w)
	start := ph.recs[0].at
	for _, r := range ph.recs {
		if r.res.err != nil {
			continue
		}
		k := min(w-1, int(int64(r.at.Sub(start))*int64(w)/int64(d)))
		out[k] = append(out[k], ms(r.lat))
	}
	return out
}

// windowPercentile is the median over windows of each window's p-th
// percentile.
func windowPercentile(windows [][]float64, p float64) float64 {
	var xs []float64
	for _, w := range windows {
		if len(w) > 0 {
			xs = append(xs, percentile(w, p))
		}
	}
	return median(xs)
}

func firstErr(ph phase) error {
	for _, r := range ph.recs {
		if r.res.err != nil {
			return r.res.err
		}
	}
	return nil
}
