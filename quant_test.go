package p2h_test

// The quantized leaf mirror's container surface. That a quantized tree
// answers bitwise like its plain twin and the linear scan is the oracle
// matrix's (oracle_test.go); DESIGN.md's "Quantized leaf scan" section derives
// why.

import (
	"bytes"
	"testing"

	p2h "p2h"
)

// TestQuantizedContainerRoundTrip pins the persistence surface: the container
// header records Quantize, the payload carries the mirror, and the restored
// index keeps both the speedup machinery and byte-identical answers.
func TestQuantizedContainerRoundTrip(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Sift", 1200, 15))
	queries := p2h.GenerateQueries(data, 10, 16)
	for _, row := range oracleKinds {
		if !row.spec.Quantize {
			continue
		}
		kind := row.spec.Kind
		t.Run(kind, func(t *testing.T) {
			quantized := p2h.MustBuild(t, data, row.spec)
			var buf bytes.Buffer
			if err := p2h.Save(&buf, quantized); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			info, err := p2h.Inspect(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if !info.Spec.Quantize {
				t.Fatalf("%s container header lost Quantize: %+v", kind, info.Spec)
			}
			loaded, err := p2h.Load(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			for qi := 0; qi < queries.N; qi++ {
				q := queries.Row(qi)
				want, _ := quantized.Search(q, p2h.SearchOptions{K: 5})
				got, _ := loaded.Search(q, p2h.SearchOptions{K: 5})
				requireIdentical(t, "restored", got, want)
			}
		})
	}
}
