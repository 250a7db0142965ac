package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode
// reads: the end-to-end metrics and their bounds.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// steadiness runs the workload k times, one process per run, and prints
// each end-to-end metric's median, quartiles and spread — (q3 - q1) /
// median — next to its bound. Every run uses seed, so the spread is the
// run-to-run noise alone; with sweep the runs use seeds seed..seed+k-1,
// so it adds the differences between the seeds' inputs. A spread under
// a third of the bound is the target.
func steadiness(name string, seed int64, seconds, k int, sweep bool) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("steadiness mode reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	incorrect := 0
	for i := 0; i < k; i++ {
		s := seed
		if sweep {
			s += int64(i)
		}
		cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(s), "--seconds", fmt.Sprint(seconds), "--trace", "0")
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		res, err := lastResult(out.String())
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		if !res.Correct {
			incorrect++
		}
		var line []string
		for _, m := range bf.EndToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok {
				return fmt.Errorf("run with seed %d: metric %s missing", s, m.Name)
			}
			values[m.Name] = append(values[m.Name], v.Value)
			line = append(line, fmt.Sprintf("%s=%.4g", m.Name, v.Value))
		}
		fmt.Printf("run %d, seed %d: correct=%v attempted=%d failed=%d %s\n", i+1, s, res.Correct, res.Attempted, res.Failed, strings.Join(line, " "))
	}
	seeds := fmt.Sprintf("seed %d", seed)
	if sweep {
		seeds = fmt.Sprintf("seeds %d..%d", seed, seed+int64(k)-1)
	}
	fmt.Printf("\n%s: %d runs, %s, %d incorrect\n", name, k, seeds, incorrect)
	fmt.Printf("%-24s %12s %12s %12s %8s %8s %s\n", "metric", "q1", "median", "q3", "spread", "bound", "spread < bound/3")
	for _, m := range bf.EndToEnd {
		q1, q2, q3 := quartiles(values[m.Name])
		spread := math.Abs(q3-q1) / q2
		verdict := "yes"
		if spread >= m.Bound/3 {
			verdict = "NO"
		}
		fmt.Printf("%-24s %12.4f %12.4f %12.4f %7.1f%% %7.0f%% %s\n", m.Name, q1, q2, q3, 100*spread, 100*m.Bound, verdict)
	}
	return nil
}

// lastResult parses the JSON object on the last line of a run's output.
func lastResult(out string) (runResult, error) {
	var last string
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var r runResult
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("no result line: %w", err)
	}
	return r, nil
}
