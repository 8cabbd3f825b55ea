// Streaming: a mutable P2HNNS workload — points arrive and expire while
// hyperplane queries keep coming, the pattern of online active learning
// where the unlabeled pool changes between rounds.
//
// The example drives the dynamic kind (*p2h.Dynamic: BC-Tree snapshot + delta
// buffer + tombstones with automatic rebuilds) through insert/delete/query waves,
// cross-checks every wave against a fresh exhaustive scan, and finishes with
// a concurrent batch of queries via p2h.SearchBatch on a sharded index.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	p2h "p2h"
)

const (
	dim       = 64
	initial   = 12000
	waves     = 5
	perWave   = 1500 // inserts and deletes per wave
	perQueryK = 5
)

func main() {
	rng := rand.New(rand.NewSource(21))
	data := p2h.Dedup(p2h.GenerateDataset("Cifar-10", initial, 1))
	fmt.Printf("initial pool: %d points, %d dims\n\n", data.N, data.D)

	// The declarative entry point returns the Index interface; the dynamic
	// kind's mutation surface comes from the concrete type.
	ix, err := p2h.New(data, p2h.Spec{Kind: p2h.KindDynamic, Seed: 1, CompactFraction: 0.2})
	if err != nil {
		log.Fatal(err)
	}
	index := ix.(*p2h.Dynamic)

	// Track live vectors for the reference scan (handle -> vector).
	live := make(map[int32][]float32, data.N)
	for i := 0; i < data.N; i++ {
		live[int32(i)] = data.Row(i)
	}

	newPoint := func() []float32 {
		// New arrivals near existing points: drift, not a new distribution.
		basis := data.Row(rng.Intn(data.N))
		p := make([]float32, data.D)
		for j := range p {
			p[j] = basis[j] + float32(rng.NormFloat64()*0.05)
		}
		return p
	}

	for wave := 1; wave <= waves; wave++ {
		start := time.Now()
		for i := 0; i < perWave; i++ {
			p := newPoint()
			h := index.Insert(p)
			live[h] = p
		}
		deleted := 0
		for h := range live {
			if deleted == perWave {
				break
			}
			if index.Delete(h) {
				delete(live, h)
				deleted++
			}
		}
		mutTime := time.Since(start)

		// One query against the mutated pool, checked exactly.
		queries := p2h.GenerateQueries(data, 1, int64(100+wave))
		q := queries.Row(0)
		start = time.Now()
		res, _ := index.Search(q, p2h.SearchOptions{K: perQueryK})
		queryTime := time.Since(start)

		best, bestID := 1e308, int32(-1)
		for h, p := range live {
			if d := p2h.Distance(p, q); d < best {
				best, bestID = d, h
			}
		}
		if res[0].ID != bestID && res[0].Dist > best*(1+1e-9)+1e-12 {
			log.Fatalf("wave %d: index top (%d, %v) vs reference (%d, %v)",
				wave, res[0].ID, res[0].Dist, bestID, best)
		}
		fmt.Printf("wave %d: +%d/-%d points in %v; live %d; top-%d query in %v (nearest dist %.6f) ✓\n",
			wave, perWave, deleted, mutTime.Round(time.Millisecond),
			index.N(), perQueryK, queryTime.Round(time.Microsecond), res[0].Dist)
	}

	// Finish with a concurrent batch on a sharded snapshot of the live set.
	rows := make([][]float32, 0, len(live))
	for _, p := range live {
		rows = append(rows, p)
	}
	snapshot := p2h.FromRows(rows)
	sharded, err := p2h.New(snapshot, p2h.Spec{Kind: p2h.KindSharded, Shards: 8, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	batch := p2h.GenerateQueries(snapshot, 200, 3)
	start := time.Now()
	results := p2h.SearchBatch(sharded, batch, p2h.SearchOptions{K: perQueryK}, 0)
	elapsed := time.Since(start)
	fmt.Printf("\nsharded batch: %d queries x top-%d over %d points in %v (%.3f ms/query)\n",
		batch.N, perQueryK, snapshot.N, elapsed.Round(time.Millisecond),
		elapsed.Seconds()*1000/float64(batch.N))
	_ = results
}
