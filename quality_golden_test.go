package qmatch_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qmatch/internal/bench"
	"qmatch/internal/core"
	"qmatch/internal/dataset"
	"qmatch/internal/match"
)

// qualityEntry is one (corpus pair, algorithm) cell of the quality golden:
// everything the matcher says about the pair, to full float precision.
type qualityEntry struct {
	Pair      string  `json:"pair"`
	Algorithm string  `json:"algorithm"`
	TreeQoM   float64 `json:"treeQoM"`
	// Correspondences is the selected set, in the order Match returns it.
	Correspondences []match.Correspondence `json:"correspondences"`
	// Evaluation carries the Figure 5 precision/recall/overall and the
	// Figure 6 counts (Predicted = matches found, Real = manual matches).
	Evaluation match.Evaluation `json:"evaluation"`
}

// qualityPairs are the corpus pairs the quality golden pins.
func qualityPairs() []dataset.Pair {
	return []dataset.Pair{
		dataset.POPair(), dataset.BookPair(), dataset.DCMDPair(),
		dataset.XBenchPair(), dataset.LibraryHumanPair(), dataset.ProteinPair(),
	}
}

// qualityOf runs one algorithm over one corpus pair.
func qualityOf(a match.Algorithm, p dataset.Pair) qualityEntry {
	cs := a.Match(p.Source, p.Target)
	if cs == nil {
		cs = []match.Correspondence{}
	}
	return qualityEntry{
		Pair:            p.Name,
		Algorithm:       a.Name(),
		TreeQoM:         a.TreeScore(p.Source, p.Target),
		Correspondences: cs,
		Evaluation:      match.Evaluate(cs, p.Gold),
	}
}

// TestQualityGolden pins what the matchers say, not only its shape: the
// exact tree QoM, the selected correspondence set with scores, and the
// Figure 5/6 numbers of every corpus pair and algorithm. A pair-table
// refactor that changes any of them fails here. Regenerate deliberately
// with `go test -run QualityGolden -update .` and justify the diff.
func TestQualityGolden(t *testing.T) {
	var entries []qualityEntry
	for _, p := range qualityPairs() {
		for _, a := range bench.DefaultAlgorithms().List() {
			entries = append(entries, qualityOf(a, p))
		}
	}
	got, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "quality_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("match quality drifted from %s (run with -update if intentional)", golden)
	}

	// The parallel pair-table schedule must say exactly the same; the
	// baselines have no fill schedule, so only the hybrid reruns.
	hybrids := 0
	for i, p := range qualityPairs() {
		h := core.NewHybrid(nil)
		h.Parallelism = 4
		for _, e := range entries {
			if e.Pair == p.Name && e.Algorithm == h.Name() {
				hybrids++
				if par := qualityOf(h, p); !reflect.DeepEqual(par, e) {
					t.Errorf("pair %d (%s): parallel fill diverges from the serial one", i, p.Name)
				}
			}
		}
	}
	if hybrids != len(qualityPairs()) {
		t.Fatalf("compared %d hybrid entries, want %d", hybrids, len(qualityPairs()))
	}
}
