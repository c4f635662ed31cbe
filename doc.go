// Package farmer is a from-scratch Go implementation of FARMER — "Finding
// Interesting Rule Groups in Microarray Datasets" (Cong, Tung, Xu, Pan,
// Yang; SIGMOD 2004) — together with everything its evaluation depends on.
//
// Microarray datasets have very many columns (genes) and very few rows
// (samples). Conventional association-rule miners enumerate column
// combinations, a search space of 2^columns; FARMER instead enumerates ROW
// combinations (2^rows, which is small in this domain) over conditional
// transposed tables, and reports interesting rule groups (IRGs): bundles of
// rules with identical row support, represented by a unique upper bound and
// a set of lower bounds.
//
// # What is in the box
//
//   - RunFARMER — the FARMER algorithm with all three pruning strategies of the
//     paper (candidate absorption, back scan, support/confidence/chi-square
//     bounds) and MineLB lower-bound recovery.
//   - Dataset/Matrix loaders, equal-depth / equal-width / entropy-MDL
//     discretization, and a deterministic synthetic microarray generator
//     standing in for the paper's five clinical datasets.
//   - The paper's baselines, independently implemented: CHARM, a
//     CLOSET-style FP-tree miner, ColumnE (column-enumeration interesting
//     rules), and CARPENTER (row-enumeration closed patterns).
//   - The Table-2 classifiers: an IRG classifier, CBA, and a linear SVM.
//   - An experiment harness (internal/experiments, driven by
//     cmd/experiments) regenerating every table and figure of §4.
//
// # Quick start
//
//	d, _ := farmer.ReadTransactions(f)
//	res, _ := farmer.RunFARMER(context.Background(), d, d.ClassIndex("cancer"), farmer.MineOptions{
//		MinSup:             3,
//		MinConf:            0.9,
//		ComputeLowerBounds: true,
//	})
//	for _, g := range res.Groups {
//		fmt.Println(g.Format(d, "cancer"))
//	}
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package farmer
