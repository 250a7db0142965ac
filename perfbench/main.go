// Command perfbench is the repository benchmark. It composes the
// production stack from the repo's packages — httpfront.Collector in
// front of httpfront.Exec behind a loopback net/http listener, with an
// epoch.Manager sealing into chunked CAS storage, as
// orochi-serve -epoch-dir does — drives it with a seeded open-loop
// Poisson generator, audits each sealed chain with
// epoch.Auditor.DrainSealed as orochi-audit -epochs does, and prints
// every metric by name and unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload wiki --seed 1 --seconds 28 --trace 0
//	bash perfbench/run.sh --workload wiki --seed 1 --seconds 28 --trace 1
//	bash perfbench/run.sh --workload forum --seed 1 --seconds 28 --steady 10
//	bash perfbench/run.sh --workload forum --seed 1 --seconds 28 --steady 10 --sweep
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics. --steady k runs the
// workload k times with the same seed (with --sweep, with consecutive
// seeds) and prints each end-to-end metric's median, quartiles and
// spread next to its bound in BENCHMARK.json. See README.md for what
// every metric means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	name := flag.String("workload", "wiki", "workload: wiki, forum or hotcrp")
	seed := flag.Int64("seed", 1, "workload seed: the request stream and its arrival times derive from it")
	seconds := flag.Int("seconds", 28, "nominal serving time of the run's schedule of rates; fixes the stream length")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	steady := flag.Int("steady", 0, "run the workload this many times with --seed and print each end-to-end metric's spread")
	sweep := flag.Bool("sweep", false, "with --steady, give the runs consecutive seeds from --seed on")
	flag.Parse()

	s, err := specByName(*name)
	if err != nil {
		fail(err)
	}
	if *seconds < 1 {
		fail(fmt.Errorf("--seconds must be at least 1"))
	}
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *steady > 0 {
		if err := steadiness(s.name, *seed, *seconds, *steady, *sweep); err != nil {
			fail(err)
		}
		return
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fail(err)
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fail(err)
	}
	work, _ = filepath.Abs(work)
	ctx := context.Background()
	var rep *report
	if *traced == 1 {
		rep, err = runTraced(ctx, s, *seed, *seconds, work)
	} else {
		rep, err = runServeAudit(ctx, s, *seed, *seconds, work)
	}
	os.RemoveAll(work)
	if err != nil {
		fail(err)
	}
	rep.print()
	if !rep.correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed; see the report above")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report is one run's result: the metrics, the correctness gate and the
// operation counts, plus human-readable diagnostics.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	notes     []string
}

type metric struct {
	name, unit string
	value      float64
}

func (r *report) add(name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name, unit, value})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records one correctness condition; a failed one fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	status := "ok  "
	if !ok {
		status = "FAIL"
		r.correct = false
	}
	r.note("check %s "+format, append([]any{status}, args...)...)
}

func (r *report) print() {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	fmt.Printf("operations (requests sent plus epochs audited): %d attempted, %d failed (%.3f%%)\n",
		r.attempted, r.failed, 100*float64(r.failed)/float64(max(1, r.attempted)))
	for _, m := range r.metrics {
		fmt.Printf("metric %-32s %14.4f %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}
