package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"qmatch/internal/dataset"
	"qmatch/internal/lingo"
	"qmatch/internal/match"
	"qmatch/internal/synth"
	"qmatch/internal/xmltree"
)

// selectOracle is the selection route from before the value plane:
// materialize every pair with Pairs, drop label-less pairs under the gate,
// and Select over the rest.
func selectOracle(pairs []PairQoM, th float64, requireLabelEvidence bool) []match.Correspondence {
	var scored []match.ScoredPair
	for _, p := range pairs {
		if requireLabelEvidence && p.QoM.LabelKind == lingo.None {
			continue
		}
		scored = append(scored, match.ScoredPair{Source: p.Source, Target: p.Target, Score: p.QoM.Value})
	}
	return match.Select(scored, th)
}

// candidatesMismatch compares Select over Candidates with the oracle at
// several thresholds, gated and ungated, and describes the first
// difference ("" when there is none).
func candidatesMismatch(r *Result) string {
	pairs := r.Pairs()
	for _, gate := range []bool{true, false} {
		for _, th := range []float64{0.5, 0.75, 0.9} {
			got := match.Select(r.Candidates(th, gate), th)
			if want := selectOracle(pairs, th, gate); !reflect.DeepEqual(got, want) {
				return fmt.Sprintf("threshold %.2f, label gate %v: Select(Candidates) = %v, oracle %v", th, gate, got, want)
			}
		}
	}
	return ""
}

// Select over the threshold-scanned plane equals the materialize-then-
// filter oracle on every corpus pair, sequentially and in parallel.
func TestCandidatesMatchOracle(t *testing.T) {
	pairs := []dataset.Pair{
		dataset.POPair(), dataset.BookPair(), dataset.DCMDPair(),
		dataset.XBenchPair(), dataset.LibraryHumanPair(),
	}
	if !testing.Short() {
		pairs = append(pairs, dataset.ProteinPair())
	}
	for _, p := range pairs {
		for _, par := range []int{1, 4} {
			m := NewMatcher(nil)
			m.Parallelism = par
			r := m.Tree(p.Source, p.Target)
			if msg := candidatesMismatch(r); msg != "" {
				t.Errorf("%s, parallelism %d: %s", p.Name, par, msg)
			}
			r.Release()
		}
	}
}

// The same equivalence over randomly generated tree pairs, up to 120
// elements a side so that many cross parallelCutoff.
func TestQuickCandidatesMatchOracle(t *testing.T) {
	gen := func(seed int64, size uint8) *xmltree.Node {
		return synth.Generate(synth.Config{Seed: seed, Elements: int(size%120) + 1, MaxDepth: 5, MaxChildren: 6})
	}
	for _, par := range []int{1, 4} {
		m := NewMatcher(nil)
		m.Parallelism = par
		prop := func(seed int64, a, b uint8) bool {
			src := gen(seed, a)
			tgt, _ := synth.Derive(gen(seed+1, b), synth.Uniform(seed, 0.3))
			r := m.Tree(src, tgt)
			defer r.Release()
			if msg := candidatesMismatch(r); msg != "" {
				t.Log(msg)
				return false
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
	}
}

// Re-matched tables, in both directions, select like the oracle too.
func TestRematchCandidatesMatchOracle(t *testing.T) {
	pair := dataset.DCMDPair()
	for _, evo := range evolutions {
		m := NewMatcher(nil)
		prev := m.Tree(pair.Source, pair.Target)
		newTgt := pair.Target.Clone()
		evo.mutate(t, newTgt)
		got, _ := m.RematchTarget(prev, newTgt)
		if msg := candidatesMismatch(got); msg != "" {
			t.Errorf("target/%s: %s", evo.name, msg)
		}
		newSrc := pair.Source.Clone()
		evo.mutate(t, newSrc)
		got, _ = m.RematchSource(prev, newSrc)
		if msg := candidatesMismatch(got); msg != "" {
			t.Errorf("source/%s: %s", evo.name, msg)
		}
	}
}

// checkRebuilt compares every QoM the accessors rebuild — Pairs, Pair,
// TopPairs, BestForSource and Root — with the reference oracle's table,
// field for field.
func checkRebuilt(t *testing.T, name string, r *Result, want []QoM) {
	t.Helper()
	m := len(r.tgtNodes)
	at := func(s, tn *xmltree.Node) QoM { return want[r.srcIdx[s]*m+r.tgtIdx[tn]] }

	pairs := r.Pairs()
	if len(pairs) != len(want) {
		t.Fatalf("%s: Pairs returned %d of %d cells", name, len(pairs), len(want))
	}
	for _, p := range pairs {
		if w := at(p.Source, p.Target); p.QoM != w {
			t.Fatalf("%s: Pairs(%s, %s) = %+v, oracle %+v", name, p.Source.Path(), p.Target.Path(), p.QoM, w)
		}
		if q, ok := r.Pair(p.Source, p.Target); !ok || q != p.QoM {
			t.Fatalf("%s: Pair(%s, %s) = %+v, %v, oracle %+v", name, p.Source.Path(), p.Target.Path(), q, ok, p.QoM)
		}
	}
	for _, p := range r.TopPairs(25) {
		if w := at(p.Source, p.Target); p.QoM != w {
			t.Fatalf("%s: TopPairs entry (%s, %s) = %+v, oracle %+v", name, p.Source.Path(), p.Target.Path(), p.QoM, w)
		}
	}
	for _, s := range r.srcNodes {
		tn, q := r.BestForSource(s)
		if w := at(s, tn); q != w {
			t.Fatalf("%s: BestForSource(%s) = %+v, oracle %+v", name, s.Path(), q, w)
		}
	}
	if r.Root != want[0] {
		t.Fatalf("%s: Root = %+v, oracle %+v", name, r.Root, want[0])
	}
}

// Every rebuilt QoM equals the oracle's cell, on kernel-backed fills at
// either parallelism.
func TestRebuiltQoMMatchesReference(t *testing.T) {
	pairs := []dataset.Pair{
		dataset.POPair(), dataset.BookPair(), dataset.DCMDPair(),
		dataset.XBenchPair(), dataset.LibraryHumanPair(),
	}
	for _, p := range pairs {
		want := referenceTable(NewMatcher(nil), p.Source, p.Target)
		for _, par := range []int{1, 4} {
			m := NewMatcher(nil)
			m.Parallelism = par
			r := m.Tree(p.Source, p.Target)
			if r.kern == nil {
				t.Fatalf("%s: a whole-table fill kept no kernel", p.Name)
			}
			checkRebuilt(t, fmt.Sprintf("%s/parallelism %d", p.Name, par), r, want)
			r.Release()
		}
	}
}

// A kernel-less re-matched Result rebuilds through a private clone of its
// matcher's configuration: it stays exact while the matcher that filled it
// serves other matches concurrently — as after the Engine returns that
// matcher's handle to its pool while the Result lives on as rematch state —
// and while another goroutine rebuilds from it too.
func TestRebuiltQoMAfterMatcherReuse(t *testing.T) {
	pair := dataset.DCMDPair()
	for _, evo := range evolutions {
		m := NewMatcher(nil)
		prev := m.Tree(pair.Source, pair.Target)
		newTgt := pair.Target.Clone()
		evo.mutate(t, newTgt)
		r, stats := m.RematchTarget(prev, newTgt)
		if r.kern != nil || stats.Full {
			t.Fatalf("%s: want an incremental kernel-less rematch, got kernel %v, %+v", evo.name, r.kern != nil, stats)
		}
		want := referenceTable(NewMatcher(nil), pair.Source, newTgt)

		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // the matcher moves on to an unrelated match
			defer wg.Done()
			p := dataset.BookPair()
			m.Tree(p.Source, p.Target).Release()
		}()
		go func() { // a second reader rebuilds the same Result
			defer wg.Done()
			for idx, p := range r.Pairs() {
				if p.QoM != want[idx] {
					t.Errorf("%s: concurrent Pairs cell %d = %+v, oracle %+v", evo.name, idx, p.QoM, want[idx])
					return
				}
			}
		}()
		checkRebuilt(t, evo.name, r, want)
		wg.Wait()
	}
}
