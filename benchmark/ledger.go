package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
)

// runChild runs one workload in a fresh process and returns its result line.
func runChild(workload string, seed int64, seconds float64, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	os.Stdout.Write(out)
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err != nil {
			return nil, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
		}
		return nil, fmt.Errorf("%s seed %d trace %d: no result line: %w", workload, seed, trace, jerr)
	}
	return &res, nil
}

// runLedger is the whole benchmark: every workload, untraced then traced,
// each in a fresh child process, for `repeat` consecutive seeds — the same
// way the acceptance procedure varies runs.  It then holds the runs against
// each other: for every end-to-end metric × workload it prints the median,
// the quartile spread (as a share of the median) and the bound.  Two runs
// that disagree by more than the bound fail the command; a spread wider than
// the bound makes the metric "unresolved" on that workload — a later
// comparison there could not tell a regression from noise — never
// "unchanged".  The return value is the exit code.
func runLedger(root string, seed int64, seconds float64, repeat int) int {
	if repeat < 1 {
		repeat = 1
	}
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	exit := 0
	for s := seed; s < seed+int64(repeat); s++ {
		for _, w := range workloadDefs {
			var untraced *result
			for trace := 0; trace <= 1; trace++ {
				res, err := runChild(w.Name, s, seconds, trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 2
				}
				if !res.Correct {
					fmt.Printf("# FAILED: %s seed %d trace %d: correct=false, %d of %d operations failed\n", w.Name, s, trace, res.Failed, res.Attempted)
					exit = 1
				}
				if trace == 0 {
					untraced = res
					for name, v := range res.Metrics {
						values[key{w.Name, name}] = append(values[key{w.Name, name}], v.Value)
					}
					continue
				}
				if base := untraced.Metrics["gaps_per_s"].Value; base > 0 {
					// Both runs offer the same load, so on the open-loop
					// workloads this is 0 unless tracing makes requests fail.
					fmt.Printf("%s trace.overhead_share ratio %.6g\n", w.Name, 1-res.Metrics["trace.gaps_per_s"].Value/base)
				}
			}
		}
	}
	if repeat < 2 {
		return exit
	}
	fmt.Printf("# self-check over %d seeds (%d..%d): median, spread = (Q3-Q1)/median (of two runs: their difference/median), bound\n", repeat, seed, seed+int64(repeat)-1)
	for _, w := range workloadDefs {
		for _, d := range endToEndDefs {
			v := values[key{w.Name, d.Name}]
			q1, q2, q3 := quartiles(v)
			spread := (q3 - q1) / q2
			if repeat == 2 {
				spread = math.Abs(v[0]-v[1]) / q2
			}
			verdict := "ok"
			switch {
			case spread > d.Bound && repeat == 2:
				verdict = "DISAGREE"
				exit = 1
			case spread > d.Bound:
				verdict = "UNRESOLVED"
				exit = 1
			case spread > d.Bound/3:
				verdict = "ok (above a third of the bound)"
			}
			fmt.Printf("%-12s %-16s %-5s median %-10.5g spread %6.2f%%  bound %4.0f%%  %s\n",
				w.Name, d.Name, d.Unit, q2, 100*spread, 100*d.Bound, verdict)
		}
	}
	return exit
}
