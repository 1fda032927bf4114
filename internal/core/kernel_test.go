package core

import (
	"reflect"
	"runtime"
	"sort"
	"testing"

	"qmatch/internal/dataset"
	"qmatch/internal/xmltree"
)

// tableOf recomputes a pair table with the given matcher and returns every
// cell's full QoM, rebuilt from the plane, for bit-identical comparison.
func tableOf(m *Matcher, src, tgt *xmltree.Node) []QoM {
	return rebuiltTable(m.Tree(src, tgt))
}

// The interned kernel and the row sweep must not change a single bit of any
// pair table: every corpus workload fills identically to the recursive
// direct-scoring oracle (reference_test.go).
func TestKernelEquivalence(t *testing.T) {
	pairs := []dataset.Pair{
		dataset.POPair(), dataset.BookPair(), dataset.DCMDPair(),
		dataset.XBenchPair(), dataset.LibraryHumanPair(),
	}
	if !testing.Short() {
		pairs = append(pairs, dataset.ProteinPair())
	}
	for _, p := range pairs {
		want := referenceTable(NewMatcher(nil), p.Source, p.Target)

		kern := NewMatcher(nil)
		if got := tableOf(kern, p.Source, p.Target); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: kernel table differs from the recursive direct-scoring oracle", p.Name)
		}
	}
}

// The parallel fill (kernel rows and level sweep fanned over the worker
// pool) must also be bit-identical. 81×81 nodes crosses parallelCutoff.
func TestKernelEquivalenceParallel(t *testing.T) {
	src, tgt := wide("L", 80), wide("R", 80)
	if cells := src.Size() * tgt.Size(); cells < parallelCutoff {
		t.Fatalf("workload has %d cells, below the parallel cutoff %d", cells, parallelCutoff)
	}
	want := referenceTable(NewMatcher(nil), src, tgt)

	par := NewMatcher(nil)
	par.Parallelism = 4
	if got := tableOf(par, src, tgt); !reflect.DeepEqual(got, want) {
		t.Error("parallel kernel table differs from the recursive direct-scoring oracle")
	}
}

// A node outside the matched trees must yield the zero QoM, not a panic
// from the -1 table index Result.cell would produce.
func TestPairForeignNode(t *testing.T) {
	p := dataset.DCMDPair()
	r := NewMatcher(nil).Tree(p.Source, p.Target)
	foreign := xmltree.New("Stranger", xmltree.Elem("string"))
	if q, ok := r.Pair(foreign, p.Target); ok || q != (QoM{}) {
		t.Errorf("Pair(foreign, target) = %+v, %v, want zero, false", q, ok)
	}
	if q, ok := r.Pair(p.Source, foreign); ok || q != (QoM{}) {
		t.Errorf("Pair(source, foreign) = %+v, %v, want zero, false", q, ok)
	}
	if bt, q := r.BestForSource(foreign); bt != nil || q != (QoM{}) {
		t.Errorf("BestForSource(foreign) = %v, %+v, want nil, zero", bt, q)
	}
}

// topPairsReference is the pre-heap implementation: materialize every pair,
// stable-sort descending by value (pre-order position breaks ties), take n.
func topPairsReference(r *Result, n int) []PairQoM {
	pairs := r.Pairs()
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].QoM.Value > pairs[j].QoM.Value })
	if n > len(pairs) {
		n = len(pairs)
	}
	if n < 0 {
		n = 0
	}
	return pairs[:n]
}

// The bounded-heap TopPairs must reproduce the sort-based ordering exactly,
// ties included — wide trees make nearly every cell a tie.
func TestTopPairsMatchesSort(t *testing.T) {
	results := []*Result{
		NewMatcher(nil).Tree(dataset.DCMDPair().Source, dataset.DCMDPair().Target),
		NewMatcher(nil).Tree(wide("L", 20), wide("R", 20)),
	}
	for ri, r := range results {
		for _, n := range []int{1, 3, 10, 57, len(r.flags), len(r.flags) + 100} {
			got := r.TopPairs(n)
			want := topPairsReference(r, n)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("result %d: TopPairs(%d) diverges from sort-based selection", ri, n)
			}
		}
		if got := r.TopPairs(0); got != nil {
			t.Errorf("result %d: TopPairs(0) = %d pairs, want none", ri, len(got))
		}
		if got := r.TopPairs(-3); got != nil {
			t.Errorf("result %d: TopPairs(-3) = %d pairs, want none", ri, len(got))
		}
	}
}

// Allocation regression gate for the hybrid hot loop. With the pooled
// arena buffers (matchBuffers) a released warm DCMD fill runs at ~420
// allocations — what remains is the interner, kernel bookkeeping and the
// Result header, not per-cell garbage. The 700 ceiling trips on any return
// of per-cell allocation or a fill that stops drawing from the pool,
// without flaking on runtime noise. Release inside the measured loop is
// what keeps the pool warm: dropping it is itself a regression this gate
// should catch, since unreleased tables fall to the GC and every run pays
// the arena over again.
func TestTreeAllocsBounded(t *testing.T) {
	p := dataset.DCMDPair()
	m := NewMatcher(nil)
	m.Tree(p.Source, p.Target).Release() // warm memo caches and the buffer pool
	allocs := testing.AllocsPerRun(5, func() {
		m.Tree(p.Source, p.Target).Release()
	})
	if allocs > 700 {
		t.Errorf("DCMD Tree+Release = %.0f allocs/run, regression ceiling is 700", allocs)
	}
}

// Bytes regression gate for the post-fill path. A warm DCMD Hybrid.Match
// (fill, candidate scan, selection) plus ResetCache allocates ~75 KB: the
// arena serves the pair table and selection reads the value plane
// directly. Materializing the table again — even only a ScoredPair copy
// of all 2,014 cells, 48 KB — trips the 100 KB ceiling; the PairQoM
// route this replaced cost ~380 KB.
func TestHybridMatchAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool entries, reallocating the pooled table")
	}
	const ceiling = 100_000
	p := dataset.DCMDPair()
	h := NewHybrid(nil)
	h.Match(p.Source, p.Target) // warm memo caches and the buffer pool
	h.ResetCache()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		h.Match(p.Source, p.Target)
		h.ResetCache()
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > ceiling {
		t.Errorf("DCMD Match+ResetCache = %d B/op, regression ceiling is %d", bytes, ceiling)
	}
}
