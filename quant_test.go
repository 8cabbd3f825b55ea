package p2h_test

// Spec.Quantize is an ignored field: the 8-bit leaf mirror it once built is
// gone. What stays is the contract that a spec setting it still decodes and
// builds the index it would build without it.

import (
	"bytes"
	"encoding/json"
	"testing"

	p2h "p2h"
)

// TestQuantizedContainerRoundTrip: for every kind that once honoured the
// field, New with Quantize set saves the same bytes as New without it, so the
// container header records no "quantize" and the payload is the plain tree's;
// and the strict JSON decoder still accepts the key.
func TestQuantizedContainerRoundTrip(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Sift", 1200, 15))
	for _, kind := range []string{p2h.KindBallTree, p2h.KindBCTree, p2h.KindSharded} {
		t.Run(kind, func(t *testing.T) {
			spec := p2h.Spec{Kind: kind, LeafSize: 40, Seed: 11, Shards: 3}
			var plain, set bytes.Buffer
			if err := p2h.Save(&plain, p2h.MustBuild(t, data, spec)); err != nil {
				t.Fatal(err)
			}
			spec.Quantize = true
			if err := p2h.Save(&set, p2h.MustBuild(t, data, spec)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(set.Bytes(), plain.Bytes()) {
				t.Fatalf("Quantize changed the container: %d bytes, %d without it", set.Len(), plain.Len())
			}
			if bytes.Contains(set.Bytes(), []byte(`"quantize"`)) {
				t.Fatal("the container header records quantize")
			}
			info, err := p2h.Inspect(bytes.NewReader(set.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if info.Spec.Quantize {
				t.Fatalf("Inspect reports Quantize: %+v", info.Spec)
			}
		})
	}
	var spec p2h.Spec
	if err := json.Unmarshal([]byte(`{"kind":"bctree","quantize":true}`), &spec); err != nil || !spec.Quantize {
		t.Fatalf("decoding quantize: %+v, %v", spec, err)
	}
}
