package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestRejectsNonFiniteNumbers: NaN and Inf parse as floats and slip past
// "<= 0" range checks, so every numeric input must refuse them by name.
func TestRejectsNonFiniteNumbers(t *testing.T) {
	for _, spec := range []string{"NaN", "Inf", "-Inf", "-1", "0", "", "25,NaN"} {
		if got, err := parseRates(spec); err == nil || !strings.Contains(err.Error(), "-rates") {
			t.Errorf("parseRates(%q) = %v, %v; want an error naming -rates", spec, got, err)
		}
	}
	for _, spec := range []string{"impute=NaN", "impute=Inf", "batch=-1", ""} {
		if got, err := parseMix(spec); err == nil || !strings.Contains(err.Error(), "-mix") {
			t.Errorf("parseMix(%q) = %+v, %v; want an error naming -mix", spec, got, err)
		}
	}
	if _, err := parseRates("25, 50"); err != nil {
		t.Errorf("parseRates rejects a valid list: %v", err)
	}
	if m, err := parseMix("impute=0.9, batch=0.1"); err != nil || m.Impute != 0.9 || m.Batch != 0.1 {
		t.Errorf("parseMix rejects a valid mix: %+v, %v", m, err)
	}

	// run validates before it builds the workload or touches the target.
	runWith := func(zipf, p99 float64) error {
		return run("http://127.0.0.1:0", "25", time.Second, time.Second, 1, zipf,
			"impute=1", "porto", 0.1, 500, 1, p99, 1, time.Second, "", false)
	}
	for flagName, err := range map[string]error{
		"-zipf":       runWith(math.NaN(), 250),
		"-p99-target": runWith(1.2, math.Inf(1)),
	} {
		if err == nil || !strings.Contains(err.Error(), flagName) {
			t.Errorf("non-finite %s: err = %v; want an error naming the flag", flagName, err)
		}
	}
}
