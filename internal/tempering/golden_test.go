package tempering

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tpuising/internal/ising/backend"
)

// goldenReports runs one fixed-seed ladder over both engines — separate
// multispin replicas and the lane-packed ensemble — and returns their
// reports.
func goldenReports(t *testing.T) (classic, batched Report) {
	t.Helper()
	const rows, cols, seed = 32, 64, 5
	temps := ladder(rows, cols, 4)
	cfg := Config{Temperatures: temps, SwapInterval: 2, Seed: seed, Workers: 1}
	ens, err := separateLadder(cfg, multispinLadder(t, rows, cols, seed, 1))
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := backend.NewBatchLadder("multispin", backend.Config{Rows: rows, Cols: cols, Seed: seed, Workers: 1}, temps)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := NewBatch(cfg, lanes)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Ensemble{ens, bat} {
		e.RunRounds(5)
		e.Sample(60)
	}
	return ens.Report(), bat.Report()
}

// TestReportGolden pins a fixed-seed ladder's Report, over both engines, to
// values captured before the per-rung series were reduced to one
// magnetisation series and a running energy sum.
func TestReportGolden(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "report.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want Report
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	classic, batched := goldenReports(t)
	if !reflect.DeepEqual(classic, want) {
		t.Errorf("classic report differs from the golden capture:\n got %+v\nwant %+v", classic, want)
	}
	if !reflect.DeepEqual(batched, want) {
		t.Errorf("batched report differs from the golden capture:\n got %+v\nwant %+v", batched, want)
	}
}
