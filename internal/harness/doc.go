// Package harness regenerates every table and figure of the paper's
// evaluation section. Each experiment is one exported function returning a
// *Table (rows of formatted cells plus notes), which the cmd/benchtables
// binary renders to text and CSV and the repository-level benchmarks time.
//
// The performance tables (1-7) and the system-comparison figures (8, 9) are
// produced by the calibrated performance model in internal/perf driven by the
// analytic work estimator, because the paper-scale lattices and pods cannot
// be materialised on a workstation; the correctness figures (4, 7) run the
// real Markov chains on the TensorCore simulator at laptop scale. The three
// host tables put a measured CPU column beside a paper table:
// HostBaselines beside Table 1 / Figure 8, HostShardScaling and
// HostShardedEnsembleScaling beside Table 4. The mapping
// from experiment to modules, and the paper-vs-measured comparison, is
// recorded in DESIGN.md and EXPERIMENTS.md.
package harness
