// Command benchtables regenerates every performance table and figure of the
// paper (Tables 1-7, the HBM capacity table and Figures 8-9) from the
// calibrated performance model and writes them as text and CSV files.
//
// Usage:
//
//	benchtables [-out results] [-stdout] [-host] [-hostsweeps 10]
//
// The correctness figures (4 and 7), which run real Monte-Carlo chains, are
// generated by the separate cmd/correctness binary.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"tpuising/internal/harness"
	"tpuising/internal/perf"
)

func main() {
	out := flag.String("out", "results", "directory for the generated .txt and .csv files")
	stdout := flag.Bool("stdout", false, "also print every table to standard output")
	host := flag.Bool("host", false,
		"also measure the host_baselines (Table 1 / Figure 8), host_shard_scaling and host_sharded_ensemble_scaling (Table 4) tables: real CPU-engine throughput on this machine beside the paper's tables")
	hostSweeps := flag.Int("hostsweeps", 10, "timed sweeps per host table cell")
	flag.Parse()

	if err := run(*out, *stdout, *host, *hostSweeps); err != nil {
		log.Fatal(err)
	}
}

func run(outDir string, stdout, host bool, hostSweeps int) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", outDir, err)
	}
	model := perf.DefaultModel()
	tables := harness.AllPerformanceTables(model)
	if host {
		tables = append(tables,
			harness.HostBaselines([]int{256, 1024, 4096}, hostSweeps),
			harness.HostShardScaling(4096, [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 4}, {4, 4}}, hostSweeps),
			harness.HostShardedEnsembleScaling(256, 64, [][2]int{{1, 1}, {2, 2}, {2, 4}}, hostSweeps),
		)
	}
	for _, tab := range tables {
		if stdout {
			fmt.Println(tab.Text())
		}
		if err := os.WriteFile(filepath.Join(outDir, tab.ID+".txt"), []byte(tab.Text()), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(outDir, tab.ID+".csv"), []byte(tab.CSV()), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d tables to %s\n", len(tables), outDir)
	return nil
}
