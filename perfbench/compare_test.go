package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var flips = metricDef{Name: "flips_per_ns", Unit: "flips/ns", Better: "higher", Bound: 0.15}

// steady is a parent whose runs spread by under 1%.
var steady = []float64{0.300, 0.302, 0.298, 0.301, 0.299, 0.303, 0.297, 0.300, 0.301, 0.299}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudgeClaimsAGainOnlyPastTheRule(t *testing.T) {
	// Wins 10/10 and the medians are far apart: better.
	if got := judge(flips, steady, scaled(steady, 1.10)).Verdict; got != "better" {
		t.Errorf("clear gain judged %q", got)
	}
	// Wins 8/10 only (two pairs lose) and the distributions overlap.
	change := scaled(steady, 1.004)
	change[0], change[1] = 0.290, 0.291
	row := judge(flips, steady, change)
	if row.Wins != 8 || row.Verdict == "better" {
		t.Errorf("8/10 wins judged %q (wins %d)", row.Verdict, row.Wins)
	}
	// Wins 10/10 but the median moved by less than the parent's IQR.
	if got := judge(flips, steady, scaled(steady, 1.001)).Verdict; got == "better" {
		t.Errorf("gain inside the parent's IQR judged better")
	}
}

func TestJudgeUnchangedWorseUnresolved(t *testing.T) {
	// Same runs: unchanged.
	if got := judge(flips, steady, steady).Verdict; got != "unchanged" {
		t.Errorf("identical runs judged %q", got)
	}
	// Loses 10/10 by 20%, beyond the 15% bound: worse. By 10%, inside the
	// bound: no regression.
	if got := judge(flips, steady, scaled(steady, 0.80)).Verdict; got != "worse" {
		t.Errorf("20%% loss judged %q", got)
	}
	if got := judge(flips, steady, scaled(steady, 0.90)).Verdict; got != "unchanged" {
		t.Errorf("10%% loss inside the bound judged %q", got)
	}
	// A parent whose IQR exceeds the bound never yields "unchanged".
	noisy := []float64{0.20, 0.40, 0.25, 0.35, 0.30, 0.22, 0.38, 0.28, 0.32, 0.30}
	shuffled := []float64{0.31, 0.24, 0.36, 0.27, 0.33, 0.39, 0.21, 0.29, 0.30, 0.34}
	if got := judge(flips, noisy, shuffled).Verdict; got != "unresolved" {
		t.Errorf("noisy parent judged %q, want unresolved", got)
	}
	// Worse by more than the bound with a steady parent but mixed pairs: worse.
	mixed := scaled(steady, 0.8)
	mixed[3] = 0.35
	if got := judge(flips, steady, mixed).Verdict; got != "worse" {
		t.Errorf("20%% median loss judged %q", got)
	}
	// Lower-is-better metrics flip the direction.
	lat := metricDef{Name: "job_ms_p50", Unit: "ms", Better: "lower", Bound: 0.15}
	if got := judge(lat, steady, scaled(steady, 0.9)).Verdict; got != "better" {
		t.Errorf("10%% faster latency judged %q", got)
	}
	// Per-layer metrics have no bound: no gain shown is unresolved, but
	// identical counts are unchanged.
	layer := metricDef{Name: "pod.halo_bytes_per_sweep", Unit: "bytes", Better: "lower"}
	if got := judge(layer, steady, steady).Verdict; got != "unresolved" {
		t.Errorf("per-layer timing without a gain judged %q", got)
	}
	counts := []float64{24576, 24576, 24576}
	if got := judge(layer, counts, counts).Verdict; got != "unchanged" {
		t.Errorf("identical counts judged %q", got)
	}
	if got := judge(layer, steady, scaled(steady, 1.1)).Verdict; got != "worse" {
		t.Errorf("per-layer 10%% loss on every pair judged %q", got)
	}
}

func writeRun(t *testing.T, dir string, rec record) {
	t.Helper()
	body := fmt.Sprintf("# human lines first\n{\"record\":%s}\n{\"correct\":true}\n", mustJSON(t, rec))
	name := fmt.Sprintf("%s-%d-%v.out", rec.Identity.Workload, rec.Seed, rec.Identity.Trace)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareSetsPairsBySeedAndRefusesMismatchedIdentities(t *testing.T) {
	parentDir, changeDir := t.TempDir(), t.TempDir()
	id := identity{Workload: "persite-4096", Mode: "per-site", Lattice: "4096x4096", Lanes: 1, Workers: 2, GOMAXPROCS: 2}
	svcID := identity{Workload: "service-mixed", Mode: "per-site", Workers: 2, GOMAXPROCS: 2}
	for i, v := range steady {
		seed := uint64(100 + i)
		writeRun(t, parentDir, record{Identity: id, Seed: seed, Metrics: map[string]float64{"flips_per_ns": v}})
		writeRun(t, changeDir, record{Identity: id, Seed: seed, Metrics: map[string]float64{"flips_per_ns": v * 1.1}})
		writeRun(t, parentDir, record{Identity: svcID, Seed: seed, Metrics: map[string]float64{"job_ms_p50": 30 + v}})
		writeRun(t, changeDir, record{Identity: svcID, Seed: seed, Metrics: map[string]float64{"job_ms_p50": 30 + v}})
	}
	var out strings.Builder
	if code := compareMain([]string{parentDir, changeDir}, &out); code != 0 {
		t.Fatalf("compare exited %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want a header and one row per workload, got:\n%s", out.String())
	}
	if !strings.Contains(lines[1], "persite-4096") || !strings.HasSuffix(lines[1], "better") {
		t.Errorf("persite row: %s", lines[1])
	}
	if !strings.Contains(lines[2], "service-mixed") || !strings.HasSuffix(lines[2], "unchanged") {
		t.Errorf("service row: %s", lines[2])
	}

	// A change side measured in shared mode must not be compared.
	shared := id
	shared.Mode = "shared"
	writeRun(t, changeDir, record{Identity: shared, Seed: 999, Metrics: map[string]float64{"flips_per_ns": 5.7}})
	recsP, _ := loadRecords(parentDir)
	recsC, _ := loadRecords(changeDir)
	if _, err := compareSets(recsP, recsC); err == nil || !strings.Contains(err.Error(), "different identities") {
		t.Fatalf("mismatched modes compared: %v", err)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
