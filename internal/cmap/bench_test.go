package cmap

import (
	"fmt"
	"sync/atomic"
	"testing"

	"sparta/internal/model"
)

// Micro-benchmarks behind §4.3's locking claims: bucket-granular
// stripes vs a single lock under concurrent GetOrCreate/Get mixes.

func benchMap(b *testing.B, shards int, writeFrac int) {
	m := NewWithShards(shards, 1<<16)
	var ctr atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			id := model.DocID(ctr.Add(1) % 100_000)
			if i%100 < writeFrac {
				m.GetOrCreate(id, func() *DocState { return NewDocState(id, 8) })
			} else {
				m.Get(id)
			}
		}
	})
}

func BenchmarkMapStripes(b *testing.B) {
	for _, shards := range []int{1, 4, 64} {
		for _, wf := range []int{5, 50} {
			b.Run(fmt.Sprintf("shards=%d/writes=%d%%", shards, wf), func(b *testing.B) {
				benchMap(b, shards, wf)
			})
		}
	}
}

func BenchmarkDocStateSetScore(b *testing.B) {
	d := NewDocState(1, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.SetScore(i%12, model.Score(i+1))
	}
}

func BenchmarkDocStateUB(b *testing.B) {
	d := NewDocState(1, 12)
	for i := 0; i < 6; i++ {
		d.SetScore(i, model.Score(100+i))
	}
	ub := make([]model.Score, 12)
	for i := range ub {
		ub[i] = 500
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.UB(ub)
	}
}

// BenchmarkMapChurn is one query's use of a docMap — check out, insert
// n candidates, Range, give back — on a store that has already held
// 12 000: what a small n costs next to a large one is the price of the
// capacity the large one left behind, which should be nothing.
func BenchmarkMapChurn(b *testing.B) {
	churn := func(st *Store, n int) (visited int) {
		m, sl := st.Map(DefaultShards, 40), st.Slab(12)
		for id := model.DocID(0); id < model.DocID(n); id++ {
			m.GetOrCreate(id*7, func() *DocState { return sl.New(id * 7) })
		}
		m.Range(func(*DocState) bool { visited++; return true })
		st.reset()
		return visited
	}
	for _, n := range []int{40, 5000, 12000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			st := new(Store)
			churn(st, 12000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := churn(st, n); got != n {
					b.Fatalf("Range visited %d of %d", got, n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/entry")
		})
	}
}
