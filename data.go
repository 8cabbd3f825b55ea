package p2h

import (
	"io"

	"p2h/internal/dataset"
)

// Datasets returns the names of the built-in synthetic data set surrogates
// (the 16 corpora of the paper's Table II), sorted alphabetically.
func Datasets() []string { return dataset.Names() }

// GenerateDataset synthesizes n points of the named surrogate data set
// (see Datasets). n <= 0 selects the surrogate's default size. The result is
// deterministic in seed.
func GenerateDataset(name string, n int, seed int64) *Matrix {
	return dataset.Generate(dataset.ByName(name), n, seed)
}

// GenerateQueries draws nq random hyperplane queries through the bulk of
// data, the protocol of the paper's evaluation. Each row is (normal; offset)
// with a unit normal, directly usable with Index.Search.
func GenerateQueries(data *Matrix, nq int, seed int64) *Matrix {
	return dataset.GenerateQueries(data, nq, seed)
}

// Dedup removes exact duplicate rows, keeping first occurrences — the
// paper's preprocessing step.
func Dedup(data *Matrix) *Matrix { return dataset.Dedup(data) }

// ReadFvecs reads a matrix in fvecs format (int32 dimension header followed
// by float32 components, per vector).
func ReadFvecs(r io.Reader) (*Matrix, error) { return dataset.ReadFvecs(r) }

// WriteFvecs writes a matrix in fvecs format.
func WriteFvecs(w io.Writer, m *Matrix) error { return dataset.WriteFvecs(w, m) }

// LoadFvecs reads the named fvecs file.
func LoadFvecs(path string) (*Matrix, error) { return dataset.LoadFvecs(path) }

// SaveFvecs writes m to the named fvecs file.
func SaveFvecs(path string, m *Matrix) error { return dataset.SaveFvecs(path, m) }

// GroundTruth computes the exact top-k results for every query row by
// exhaustive scan — the reference for recall measurements. It is the batched
// scan on GOMAXPROCS goroutines: p2h.SearchBatch over a LinearScan.
func GroundTruth(data, queries *Matrix, k int) [][]Result {
	return SearchBatch(NewLinearScan(data), queries, SearchOptions{K: k}, 0)
}

// Recall measures the fraction of the exact top-k recovered by res, counting
// distance ties as hits.
func Recall(res, gt []Result) float64 {
	if len(gt) == 0 {
		return 1
	}
	kth := gt[len(gt)-1].Dist
	hits := 0
	for _, r := range res {
		if r.Dist <= kth*(1+1e-9)+1e-12 {
			hits++
		}
	}
	if hits > len(gt) {
		hits = len(gt)
	}
	return float64(hits) / float64(len(gt))
}
