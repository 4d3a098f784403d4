// Package tempering implements replica exchange (parallel tempering) over
// the repository's Ising engines: N replicas of the same lattice run
// concurrently, one per temperature of a ladder, and every K sweeps adjacent
// temperatures attempt a Metropolis swap. Near the critical point a single
// chain's autocorrelation time diverges; letting configurations random-walk
// up the ladder to hot, fast-mixing temperatures and back down again cuts it
// dramatically, which is why multi-GPU Ising studies (Romero et al., Bisson
// et al.) use exactly this replica/ensemble layer as the scaling axis beyond
// a single lattice.
//
// # Composition, not selection
//
// This is the first subsystem that composes backends instead of selecting
// one: the replicas are the lanes of one ising.BatchTempered, and every
// registered engine can provide them — the lane-packed engines
// (internal/ising/ensemble, internal/ising/shardedensemble) directly, any
// other engine as separate replicas behind ising.NewBatchOf
// (backend.NewBatchLadder picks). The orchestrator advances every rung with
// one batch Sweep and runs the swap phases serially between sweeps.
//
// # The swap move
//
// An attempted swap of adjacent temperatures T_t < T_{t+1} holding replicas
// with total (extensive) energies E_t and E_{t+1} accepts with probability
// min(1, exp((beta_t - beta_{t+1}) (E_t - E_{t+1}))), which preserves
// detailed balance of the product ensemble. On acceptance the two replicas
// swap temperature labels in place — SetLaneTemperature on each — rather than
// exchanging lattice configurations, so the exchange layer moves two 8-byte
// energies per attempted pair regardless of lattice size
// (perf.ExchangeTraffic models this; the orchestrator's SwapCounts mirror it
// exactly). Pairings alternate: even rounds attempt (0,1), (2,3), ...; odd
// rounds attempt (1,2), (3,4), ...
//
// # Determinism contract
//
// The uniform deciding the swap of pair t at round r is a pure function of
// (seed, r, t) via rng.PairKeyed, and every replica's own chain is
// site-keyed, so a run is bit-reproducible at fixed seed and independent of
// GOMAXPROCS, of how many lanes the batch sweeps concurrently and of the
// replicas' internal worker counts (asserted by this package's determinism
// tests). Config.Workers is not read.
//
// # Observables
//
// Report returns, per temperature: mean |m| with a binned error bar, the
// Binder cumulant U4, the mean energy per spin, the integrated
// autocorrelation time of the |m| series with the effective sample size it
// implies, and the swap-acceptance ratio with the next-higher temperature;
// plus the total walker round trips (bottom -> top -> bottom of the ladder),
// the standard diffusion diagnostic of a tempering ladder. docs/PHYSICS.md
// describes how each observable is validated.
package tempering
