package harness

import (
	"fmt"
	"time"

	"tpuising/internal/interconnect"
	"tpuising/internal/ising/backend"
	"tpuising/internal/perf"
	"tpuising/internal/sweep"
	"tpuising/internal/tempering"
)

// temperSwapInterval is the sweeps-between-swaps of the scaling table: short
// enough that the exchange layer is exercised, long enough to be
// representative of production ladders.
const temperSwapInterval = 5

// HostTemperingScaling measures the replica-exchange layer
// (internal/tempering) on one lattice size across replica counts: every cell
// runs a multispin ladder spanning the critical window, times `rounds`
// tempering rounds of temperSwapInterval sweeps each, and pairs the measured
// aggregate host_flips/ns with the tempering diagnostics (mean swap
// acceptance, walker round trips) and the modelled swap traffic of
// perf.ExchangeTraffic — which the orchestrator's swap counters reproduce
// exactly, so the traffic columns read like ShardTraffic's but for the
// ensemble axis instead of the shard axis.
func HostTemperingScaling(size int, replicaCounts []int, rounds int) *Table {
	t := &Table{
		ID: "host_tempering_scaling",
		Title: fmt.Sprintf(
			"Measured parallel-tempering throughput on %dx%d multispin replicas vs modelled swap traffic", size, size),
		Columns: []string{
			"replicas", "host_flips/ns", "scaling", "swap acc", "round trips", "model swap B/round", "model swap us/round",
		},
	}
	link := interconnect.DefaultLinkParams()
	var base float64
	for _, n := range replicaCounts {
		temps := sweep.CriticalWindow(tempering.DefaultWindow(size*size, n), n)
		lanes, err := backend.NewLanes("multispin", backend.Config{Rows: size, Cols: size, Seed: 1}, temps)
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		ens, err := tempering.NewBatch(tempering.Config{
			Temperatures: temps,
			SwapInterval: temperSwapInterval,
			Seed:         1,
		}, lanes)
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		ens.RunRounds(1) // warm up caches and goroutine pools
		start := time.Now()
		ens.RunRounds(rounds)
		elapsed := time.Since(start)
		var tput float64
		if elapsed > 0 {
			tput = float64(size) * float64(size) * float64(n) *
				float64(temperSwapInterval) * float64(rounds) / float64(elapsed.Nanoseconds())
		}
		if base == 0 {
			base = tput / float64(n)
		}
		scaling := 0.0
		if base > 0 {
			scaling = tput / (base * float64(n))
		}
		rep := ens.Report()
		// Model every swap phase the ensemble performed — warm-up round
		// included — so the traffic columns stay an exact mirror of its swap
		// counters (the pairing parity alternates round by round, so
		// modelling only the timed rounds would drift for odd counts).
		allRounds := rounds + 1
		model := perf.ExchangeTraffic(perf.ExchangeSpec{Replicas: n, Rounds: allRounds}, link)
		t.AddRow(
			n,
			fmt.Sprintf("%.4f", tput),
			fmt.Sprintf("%.2f", scaling),
			fmt.Sprintf("%.2f", rep.Acceptance()),
			rep.RoundTrips,
			fmt.Sprintf("%.1f", float64(model.TotalBytes)/float64(allRounds)),
			fmt.Sprintf("%.2f", model.ExchangeSec/float64(allRounds)*1e6),
		)
	}
	t.Notes = append(t.Notes,
		"host_flips/ns is measured aggregate wall clock over all replicas on this machine; swap traffic is modelled",
		fmt.Sprintf("ladder spans Tc +- tempering.DefaultWindow (sized for healthy swap acceptance); %d timed rounds of %d sweeps per cell after 1 warm-up round", rounds, temperSwapInterval),
		"swap acc / round trips / traffic columns cover every swap phase the ensemble ran (warm-up included)",
		"scaling is per-replica throughput relative to the first row (1.00 = replicas cost nothing extra)",
		"an accepted swap re-labels temperatures in place, so swap traffic is two 8-byte energies per attempted pair",
	)
	return t
}
