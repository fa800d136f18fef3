package algotest_test

import (
	"slices"
	"testing"

	"sparta/internal/algos/snra"
	"sparta/internal/bench"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// suiteAlgos is every algorithm the suites check: the single-view
// family, bench.AllAlgos, and sNRA, which runs on a partition set.
var suiteAlgos = append(slices.Clip(bench.AllAlgos), bench.AlgoSNRA)

// makeAlgorithm instantiates id over view, which serves mem's postings.
// sNRA runs on mem's snra.Partitions parts instead: built onto view's
// store under its codec when view is an on-disk index, so they charge
// what view would, and mem's own parts otherwise.
func makeAlgorithm(tb testing.TB, id bench.AlgoID, mem *index.Index, view postings.View) topk.Algorithm {
	tb.Helper()
	if id != bench.AlgoSNRA {
		return bench.MakeAlgorithm(id, view)
	}
	disk, ok := view.(*diskindex.Index)
	if !ok {
		return snra.New(memoryParts(mem))
	}
	parts, err := snra.OnDisk(mem, snra.Partitions, disk.Store(), disk.Codec())
	if err != nil {
		tb.Fatal(err)
	}
	return snra.New(parts)
}

// memoryParts is mem's snra.Partitions parts as views.
func memoryParts(mem *index.Index) []postings.View {
	var parts []postings.View
	for _, part := range mem.Partition(snra.Partitions) {
		parts = append(parts, part)
	}
	return parts
}
