package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeCSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	csv := "Zip,State,Salary,Tax\n" +
		"10001,NY,90000,8000\n" +
		"10001,NJ,50000,6000\n" +
		"60601,IL,70000,5000\n" +
		"60601,IL,40000,7000\n" +
		"94103,CA,80000,3000\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func baseConfig(input string) config {
	return config{
		input:    input,
		header:   true,
		fn:       "f1",
		path:     "auto",
		maxPairs: 10,
		top:      5,
	}
}

func TestRunNegativeMaxPairsFails(t *testing.T) {
	cfg := baseConfig(writeCSV(t))
	cfg.dcFlags = []string{"not(t.Zip = t'.Zip and t.State != t'.State)"}
	cfg.maxPairs = -3
	var out strings.Builder
	if code := run(&out, cfg); code != 2 {
		t.Fatalf("exit code = %d, want 2 (negative max-pairs rejected)", code)
	}
}

func TestRunBadPathFails(t *testing.T) {
	cfg := baseConfig(writeCSV(t))
	cfg.dcFlags = []string{"not(t.Zip = t'.Zip and t.State != t'.State)"}
	cfg.path = "gpu"
	var out strings.Builder
	if code := run(&out, cfg); code != 2 {
		t.Fatalf("exit code = %d, want 2 (unknown path rejected)", code)
	}
}

func TestRunExplainText(t *testing.T) {
	cfg := baseConfig(writeCSV(t))
	cfg.dcFlags = []string{
		"not(t.Zip = t'.Zip and t.State != t'.State)",
		"not(t.Salary > t'.Salary and t.Tax < t'.Tax)",
	}
	cfg.explain = true
	var out strings.Builder
	if code := run(&out, cfg); code != 1 {
		t.Fatalf("exit code = %d, want 1 (violations present)\n%s", code, out.String())
	}
	text := out.String()
	for _, want := range []string{"plan: eqjoin", "join[Zip]", "plan: range", "examined="} {
		if !strings.Contains(text, want) {
			t.Errorf("explain output missing %q:\n%s", want, text)
		}
	}
}

func TestRunExplainJSON(t *testing.T) {
	cfg := baseConfig(writeCSV(t))
	cfg.dcFlags = []string{"not(t.Zip = t'.Zip and t.State != t'.State)"}
	cfg.explain = true
	cfg.asJSON = true
	var out strings.Builder
	if code := run(&out, cfg); code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out.String())
	}
	text := out.String()
	for _, want := range []string{`"plan"`, `"shape"`, `"eqjoin"`, `"est_pairs"`, `"actual_pairs"`} {
		if !strings.Contains(text, want) {
			t.Errorf("JSON explain missing %q:\n%s", want, text)
		}
	}
}

func TestRunNoExplainOmitsPlan(t *testing.T) {
	cfg := baseConfig(writeCSV(t))
	cfg.dcFlags = []string{"not(t.Zip = t'.Zip and t.State != t'.State)"}
	cfg.asJSON = true
	var out strings.Builder
	if code := run(&out, cfg); code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out.String())
	}
	if strings.Contains(out.String(), `"plan"`) {
		t.Errorf("plan emitted without -explain:\n%s", out.String())
	}
}

// TestRunNaNEpsFails: NaN compares false against every loss, so without
// the usage check a DC with zero violations would print FAIL and exit 1.
func TestRunNaNEpsFails(t *testing.T) {
	cfg := baseConfig(writeCSV(t))
	cfg.dcFlags = []string{"not(t.Zip = t'.Zip and t.State != t'.State and t.Salary < t'.Salary)"}
	cfg.eps = math.NaN()
	var out strings.Builder
	if code := run(&out, cfg); code != 2 {
		t.Fatalf("exit code = %d, want 2 (NaN eps rejected)", code)
	}
}
