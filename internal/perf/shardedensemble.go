package perf

import (
	"fmt"

	"tpuising/internal/interconnect"
)

// ShardedEnsembleSpec describes the composed batched×sharded engine
// (internal/ising/shardedensemble) for traffic and footprint modelling: a
// Rows x Cols per-lane lattice split into a GridR x GridC grid of shards,
// each advancing Lanes lane-packed replicas and exchanging lane-packed halo
// words each checkerboard half-sweep.
type ShardedEnsembleSpec struct {
	// Rows and Cols are the per-lane lattice dimensions.
	Rows, Cols int
	// GridR and GridC are the shard grid dimensions.
	GridR, GridC int
	// Lanes is the number of packed replicas (1..64).
	Lanes int
}

// ShardedEnsembleTrafficReport is the modelled per-sweep interconnect traffic
// of the composed engine. The byte counts are exact mirrors of what the
// engine's halo exchanges move through the fabric (the engine's measured
// Counts().CommBytes reproduces TotalBytes per sweep, asserted by test).
// Because every halo word carries all 64 bit-lanes, the traffic is the same
// whatever the active lane count — which is the composition's headline
// amortisation: per replica, halo bytes shrink by the lane count.
type ShardedEnsembleTrafficReport struct {
	// RowHaloBytes is the payload of one boundary-row message: one lane-packed
	// word (8 bytes) per site of the shard's boundary row.
	RowHaloBytes int64
	// ColHaloBytes is the payload of one boundary-column message: one
	// lane-packed word per shard row.
	ColHaloBytes int64
	// RowLinkBytes is the traffic crossing one vertical (north-south) link per
	// sweep, both directions; ColLinkBytes the horizontal analogue.
	RowLinkBytes int64
	ColLinkBytes int64
	// TotalBytes is the pod-wide bytes moved per sweep (what the engine's comm
	// counters accumulate).
	TotalBytes int64
	// Events is the pod-wide number of collective operations per sweep (eight
	// per core: four halos, two colours).
	Events int64
	// BytesPerLaneSweep is TotalBytes divided by the active lanes: the halo
	// cost of advancing one replica by one sweep, the number the batch axis
	// amortises.
	BytesPerLaneSweep float64
	// PackedBytes is the lane-packed lattice state across all shards: one
	// 64-lane word per site, whatever the active lane count.
	PackedBytes int64
	// PermuteSec is the modelled wall time of one sweep's eight lockstep
	// collective permutes under the given link parameters.
	PermuteSec float64
}

// ShardedEnsembleTraffic models the per-sweep halo traffic of the composed
// batched×sharded engine on a GridC x GridR torus mesh. It panics if the
// lattice does not decompose over the grid into whole 8-column random groups
// (the engine itself rejects such configs with an error).
func ShardedEnsembleTraffic(s ShardedEnsembleSpec, link interconnect.LinkParams) ShardedEnsembleTrafficReport {
	if s.GridR <= 0 || s.GridC <= 0 || s.Rows <= 0 || s.Cols <= 0 || s.Lanes < 1 || s.Lanes > 64 {
		panic(fmt.Sprintf("perf: invalid sharded-ensemble spec %+v", s))
	}
	if s.Rows%s.GridR != 0 || s.Cols%(s.GridC*8) != 0 {
		panic(fmt.Sprintf("perf: %dx%d lattice does not decompose over a %dx%d shard grid",
			s.Rows, s.Cols, s.GridR, s.GridC))
	}
	shardRows := s.Rows / s.GridR
	shardCols := s.Cols / s.GridC
	cores := int64(s.GridR * s.GridC)

	rep := ShardedEnsembleTrafficReport{
		RowHaloBytes: int64(shardCols) * 8,
		ColHaloBytes: int64(shardRows) * 8,
		PackedBytes:  int64(s.Rows) * int64(s.Cols) * 8,
	}
	// Per half-sweep each core sends one boundary row each way (north, south)
	// and one boundary column each way (east, west); a sweep is two
	// half-sweeps.
	rep.RowLinkBytes = 4 * rep.RowHaloBytes
	rep.ColLinkBytes = 4 * rep.ColHaloBytes
	rep.TotalBytes = cores * (4*rep.RowHaloBytes + 4*rep.ColHaloBytes)
	rep.Events = cores * 8
	rep.BytesPerLaneSweep = float64(rep.TotalBytes) / float64(s.Lanes)

	mesh := interconnect.NewMesh(s.GridC, s.GridR)
	mesh.Link = link
	for _, x := range []struct {
		dx, dy int
		bytes  int64
	}{
		{0, 1, rep.RowHaloBytes}, {0, -1, rep.RowHaloBytes},
		{-1, 0, rep.ColHaloBytes}, {1, 0, rep.ColHaloBytes},
	} {
		sec, _ := mesh.PermuteCost(mesh.ShiftPairs(x.dx, x.dy), x.bytes)
		rep.PermuteSec += 2 * sec // two colour updates per sweep
	}
	return rep
}
