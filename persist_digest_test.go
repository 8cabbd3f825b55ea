package p2h

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// digestSets are the corpora TestContainerDigests builds over: n = 8 000
// points of d >= 64, where splits are large enough that every pass of the
// builder (the seed-grow split's three distance passes, the leaf radii and
// the internal nodes' radius sweep) runs over blocks of thousands of rows.
func digestSets() map[string]*Matrix {
	dup := GenerateDataset("Sift", 2000, 7)
	dups := NewMatrix(8000, dup.D)
	for i := 0; i < dups.N; i++ {
		copy(dups.Row(i), dup.Row(i%dup.N))
	}
	return map[string]*Matrix{
		"clustered":  GenerateDataset("Sift", 8000, 5),  // d = 128, 64 clusters
		"heavy-tail": GenerateDataset("Music", 8000, 6), // d = 100, norms spread over decades
		"duplicates": dups,                              // d = 128, every point four times
	}
}

// containerDigests are the SHA-256 digests of the Save bytes of each kind
// over each digest set, recorded from a build without the float32 screen.
var containerDigests = map[string]string{
	"clustered/balltree":  "94e840c4378d4a419dd3c284967e76d3f44d0d6410fb7db367c14875e1a6c034",
	"clustered/bctree":    "17e48ffed749cb64bf7283fee36e97edbaa1e2d6a8a22baf4e23db1b514bcd45",
	"clustered/sharded":   "9f4f656382957effaa37947460743f65f78f891a0c6123716ffbdd7a4db95f0c",
	"heavy-tail/balltree": "862e5740f36e89b155046d3dfdc81316fda5d59553bd2eca7282267c416086d3",
	"heavy-tail/bctree":   "aff5e10c7c0ccbf3f5807c5c956aabfb0c386e8e8f9818f87d4af57dae0e20c4",
	"heavy-tail/sharded":  "273035da968dd21dc1f7a9bf8d3cec6694bd743b552128b32be64fc19fa25b46",
	"duplicates/balltree": "e4c71053ca9cfff2702db54b320b984311d19f18a3b829b9f6552cdee25cd300",
	"duplicates/bctree":   "c9ca1721edf268532def41daef2c49bd41f4f515970f05a725d134f1a1c57ea6",
	"duplicates/sharded":  "215dc484d10b29f6454006ba1c789d688f5289e4c8d597400e7c4a4031307f61",
}

// TestContainerDigests pins the builder at a scale TestGoldenFixtures does
// not reach: Ball, BC and three-shard Sharded containers over 8 000 points
// must come out byte for byte as recorded, whichever float kernels the host
// runs, so a change to how the builder computes its distances cannot move a
// tree.
func TestContainerDigests(t *testing.T) {
	for name, data := range digestSets() {
		for _, spec := range []Spec{
			{Kind: KindBallTree, Seed: 3},
			{Kind: KindBCTree, Seed: 3},
			{Kind: KindSharded, Shards: 3, Workers: 2, Seed: 3},
		} {
			key := name + "/" + spec.Kind
			ix, err := New(data, spec)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			var buf bytes.Buffer
			if err := Save(&buf, ix); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != containerDigests[key] {
				t.Errorf("%s: container digest %s, recorded %s", key, got, containerDigests[key])
			}
		}
	}
}
