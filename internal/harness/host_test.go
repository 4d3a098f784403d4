package harness

import (
	"strconv"
	"strings"
	"testing"
)

// TestHostBaselinesShape runs the measured host-baseline table at a small
// size and checks its shape and that every throughput cell is positive.
func TestHostBaselinesShape(t *testing.T) {
	tab := HostBaselines([]int{64, 128}, 2)
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(tab.Rows))
	}
	if len(tab.Columns) != 6 {
		t.Fatalf("got %d columns, want 6", len(tab.Columns))
	}
	for _, row := range tab.Rows {
		for i := 1; i < 5; i++ {
			v, err := strconv.ParseFloat(row[i], 64)
			if err != nil || v <= 0 {
				t.Fatalf("cell %q of row %v is not a positive throughput", row[i], row)
			}
		}
		if !strings.HasSuffix(row[5], "x") {
			t.Fatalf("speedup cell %q is not formatted as a multiple", row[5])
		}
	}
}

// TestHostShardScalingShape runs the sharded scaling table at a small size
// and checks that the measured and modelled columns are populated sensibly.
func TestHostShardScalingShape(t *testing.T) {
	tab := HostShardScaling(128, [][2]int{{1, 1}, {2, 1}}, 2)
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(tab.Rows))
	}
	if len(tab.Columns) != 6 {
		t.Fatalf("got %d columns, want 6", len(tab.Columns))
	}
	for _, row := range tab.Rows {
		if v, err := strconv.ParseFloat(row[1], 64); err != nil || v <= 0 {
			t.Fatalf("throughput cell %q of row %v is not positive", row[1], row)
		}
		if !strings.HasSuffix(row[2], "x") {
			t.Fatalf("speedup cell %q is not formatted as a multiple", row[2])
		}
		for i := 3; i < 6; i++ {
			if v, err := strconv.ParseFloat(row[i], 64); err != nil || v <= 0 {
				t.Fatalf("modelled cell %q of row %v is not positive", row[i], row)
			}
		}
	}
	// The packed row halo of a 128-wide shard is 128 bits = 16 bytes, four
	// messages per link per sweep.
	if tab.Rows[0][3] != "64" {
		t.Fatalf("row link bytes = %s, want 64", tab.Rows[0][3])
	}
}

// TestHostShardedEnsembleScalingShape: the composed-engine table has one row
// per grid, positive aggregate throughput and positive modelled traffic.
func TestHostShardedEnsembleScalingShape(t *testing.T) {
	grids := [][2]int{{1, 1}, {2, 2}}
	tab := HostShardedEnsembleScaling(64, 16, grids, 2)
	if len(tab.Rows) != len(grids) {
		t.Fatalf("table has %d rows, want %d", len(tab.Rows), len(grids))
	}
	for i, g := range grids {
		if got, want := tab.Cell(i, 0), strconv.Itoa(g[0])+"x"+strconv.Itoa(g[1]); got != want {
			t.Fatalf("row %d grid = %s, want %s", i, got, want)
		}
		v, err := strconv.ParseFloat(tab.Cell(i, 1), 64)
		if err != nil || v <= 0 {
			t.Fatalf("row %d aggregate %q is not positive (%v)", i, tab.Cell(i, 1), err)
		}
		for col := 3; col <= 4; col++ {
			b, err := strconv.Atoi(tab.Cell(i, col))
			if err != nil || b <= 0 {
				t.Fatalf("row %d col %d: %q is not positive traffic (%v)", i, col, tab.Cell(i, col), err)
			}
		}
	}
}
