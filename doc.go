// Package decluster is a library of grid-based multi-attribute record
// declustering methods for parallel database systems, reproducing the
// study "Performance Evaluation of Grid Based Multi-Attribute Record
// Declustering Methods" (Himatsingka & Srivastava, ICDE 1994).
//
// A Cartesian product file divides a k-attribute space into a grid of
// buckets; a declustering method assigns each bucket to one of M disks
// so range queries can fan out across the disk array. The package
// provides:
//
//   - The declustering methods the paper compares: disk modulo (DM /
//     CMD) and generalizations (GDM, BDM), field-wise XOR (FX / ExFX),
//     error-correcting codes (ECC) and the Hilbert-curve allocation
//     method (HCAM), plus random and explicit-table baselines.
//   - The evaluation metric: parallel response time in bucket accesses
//     against the ⌈|Q|/M⌉ lower bound, with workload generators for
//     range, partial-match and point query classes.
//   - The theory: strict-optimality checking and a complete search
//     that verifies the paper's theorem — no strictly optimal
//     declustering for range queries exists when M > 5.
//   - A storage substrate (multi-disk grid file + disk simulator) for
//     end-to-end timings, and an advisor that picks a method from a
//     workload description, operationalizing the paper's conclusion.
//   - Experiment harnesses regenerating every table and figure of the
//     paper's evaluation (see the bench_test.go benchmarks and
//     cmd/declustersim).
//
// Library-only: internal/analysis (heat maps, worst-query finder),
// internal/catalog with its record format internal/recio,
// internal/domain (typed attribute schemas) and internal/gdmopt (the
// GDM coefficient search) are reached through this facade and
// examples/ alone — no binary, experiment or benchmark workload
// imports them, by design.
//
// Quick start:
//
//	g, _ := decluster.NewGrid(64, 64)
//	m, _ := decluster.Build("HCAM", g, 16)
//	rt := decluster.ResponseTime(m, g.MustRect(
//	    decluster.Coord{0, 0}, decluster.Coord{3, 3}))
//	fmt.Printf("4×4 query: %d bucket accesses (optimal %d)\n",
//	    rt, decluster.OptimalRT(16, 16))
package decluster
