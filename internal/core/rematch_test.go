package core

import (
	"testing"

	"qmatch/internal/dataset"
	"qmatch/internal/obs"
	"qmatch/internal/synth"
	"qmatch/internal/xmltree"
)

// evolutions is the synthetic schema-evolution suite: each entry mutates a
// clone of the tree in place, covering the registry's edit vocabulary.
var evolutions = []struct {
	name   string
	mutate func(t *testing.T, root *xmltree.Node)
}{
	{"add", func(t *testing.T, root *xmltree.Node) {
		inner := firstInner(root)
		inner.Add(xmltree.New("ArchiveFlag", xmltree.Elem("boolean")))
	}},
	{"rename", func(t *testing.T, root *xmltree.Node) {
		leafAt(root, 3).Label = "CompletelyRenamedElement"
	}},
	{"retype", func(t *testing.T, root *xmltree.Node) {
		n := leafAt(root, 1)
		n.Props.Type = "decimal"
	}},
	{"delete", func(t *testing.T, root *xmltree.Node) {
		inner := firstInner(root)
		inner.Children = inner.Children[:len(inner.Children)-1]
	}},
	{"rename+retype", func(t *testing.T, root *xmltree.Node) {
		n := leafAt(root, 5)
		n.Label = "RenamedAndRetyped"
		n.Props.Type = "hexBinary"
	}},
}

// firstInner returns the first non-root node with children.
func firstInner(root *xmltree.Node) *xmltree.Node {
	for _, n := range root.Nodes()[1:] {
		if !n.IsLeaf() {
			return n
		}
	}
	return root
}

// leafAt returns the i-th leaf in pre-order.
func leafAt(root *xmltree.Node, i int) *xmltree.Node {
	leaves := root.Leaves()
	return leaves[i%len(leaves)]
}

// RematchTarget must produce a table equal to a full re-match for every
// evolution, while rescoring strictly fewer cells than the grid (the
// PhaseRematch span carries the rescored count).
func TestRematchTargetEquivalence(t *testing.T) {
	for _, pair := range []dataset.Pair{dataset.DCMDPair(), dataset.POPair()} {
		for _, evo := range evolutions {
			t.Run(pair.Name+"/"+evo.name, func(t *testing.T) {
				newTgt := pair.Target.Clone()
				evo.mutate(t, newTgt)
				if xmltree.Equal(pair.Target, newTgt) {
					t.Fatal("mutation did not change the tree")
				}

				want := NewMatcher(nil).Tree(pair.Source, newTgt)

				m := NewMatcher(nil)
				prev := m.Tree(pair.Source, pair.Target)
				tr := obs.NewTrace()
				m.Trace = tr
				got, stats := m.RematchTarget(prev, newTgt)

				if !sameTable(got, want) {
					t.Fatal("rematched table differs from full re-match")
				}
				if got.Root != want.Root {
					t.Fatalf("rematched root %+v, full root %+v", got.Root, want.Root)
				}
				total := int64(len(want.flags))
				if stats.Full || stats.RescoredCells >= total || stats.CopiedCells == 0 {
					t.Fatalf("no incremental savings: %+v over %d cells", stats, total)
				}
				if stats.CopiedCells+stats.RescoredCells != total {
					t.Fatalf("stats do not partition the table: %+v vs %d", stats, total)
				}
				span := rematchSpan(t, tr)
				if span.Cells != stats.RescoredCells {
					t.Fatalf("span cells %d, stats rescored %d", span.Cells, stats.RescoredCells)
				}
				if span.Cells >= total {
					t.Fatalf("span rescored %d of %d cells — not incremental", span.Cells, total)
				}
			})
		}
	}
}

// rematchSpan extracts the PhaseRematch span from a finished trace.
func rematchSpan(t *testing.T, tr *obs.Trace) obs.Span {
	t.Helper()
	mt := tr.Finish()
	for _, s := range mt.Spans {
		if s.Phase == obs.PhaseRematch {
			return s
		}
	}
	t.Fatal("trace has no rematch span")
	return obs.Span{}
}

// The source side evolves symmetrically: rows instead of columns.
func TestRematchSourceEquivalence(t *testing.T) {
	pair := dataset.DCMDPair()
	for _, evo := range evolutions {
		t.Run(evo.name, func(t *testing.T) {
			newSrc := pair.Source.Clone()
			evo.mutate(t, newSrc)

			want := NewMatcher(nil).Tree(newSrc, pair.Target)

			m := NewMatcher(nil)
			prev := m.Tree(pair.Source, pair.Target)
			got, stats := m.RematchSource(prev, newSrc)

			if !sameTable(got, want) {
				t.Fatal("rematched table differs from full re-match")
			}
			if stats.Full || stats.RescoredCells >= int64(len(want.flags)) || stats.CopiedCells == 0 {
				t.Fatalf("no incremental savings: %+v", stats)
			}
		})
	}
}

// A released (or otherwise unusable) previous result degrades to a full
// fill that still matches the from-scratch table.
func TestRematchReleasedPrevFallsBack(t *testing.T) {
	pair := dataset.POPair()
	newTgt := pair.Target.Clone()
	newTgt.Nodes()[2].Label = "Altered"

	m := NewMatcher(nil)
	prev := m.Tree(pair.Source, pair.Target)
	prev.Release()
	got, stats := m.RematchTarget(prev, newTgt)
	if !stats.Full || stats.CopiedCells != 0 {
		t.Fatalf("released prev should force a full re-match, got %+v", stats)
	}
	want := NewMatcher(nil).Tree(pair.Source, newTgt)
	if !sameTable(got, want) {
		t.Fatal("fallback table differs from full re-match")
	}
}

// Chained evolution: rematch output seeds the next rematch, staying equal
// to a full match at every step.
func TestRematchChain(t *testing.T) {
	pair := dataset.DCMDPair()
	m := NewMatcher(nil)
	prev := m.Tree(pair.Source, pair.Target)
	tgt := pair.Target
	for step, evo := range evolutions {
		next := tgt.Clone()
		evo.mutate(t, next)
		got, stats := m.RematchTarget(prev, next)
		want := NewMatcher(nil).Tree(pair.Source, next)
		if !sameTable(got, want) {
			t.Fatalf("step %d (%s): chained rematch diverges", step, evo.name)
		}
		if stats.Full {
			t.Fatalf("step %d (%s): chain degraded to full re-match", step, evo.name)
		}
		prev, tgt = got, next
	}
}

// rematchScale returns a large and a small synthetic schema. Matching one
// against the other and evolving the small side rescores every dirty
// column (or row) across the whole large side — more than parallelCutoff
// cells, so a rematch with Parallelism beyond 1 takes the level fan-out.
func rematchScale() (large, small *xmltree.Node) {
	large = synth.Generate(synth.Config{Seed: 11, Elements: 2500, MaxDepth: 5, MaxChildren: 8})
	small = synth.Generate(synth.Config{Seed: 12, Elements: 60, MaxDepth: 4, MaxChildren: 6})
	return large, small
}

// The evolution suites once more with a parallel matcher on a workload
// above parallelCutoff rescored cells: dirty columns (target side) and
// dirty rows (source side) go through the height-level fan-out and must
// still equal a sequential full re-match.
func TestRematchParallelEquivalence(t *testing.T) {
	large, small := rematchScale()
	check := func(t *testing.T, got, want *Result, stats RematchStats) {
		t.Helper()
		if stats.Full || stats.CopiedCells == 0 || stats.RescoredCells < parallelCutoff {
			t.Fatalf("want an incremental rematch of at least %d rescored cells, got %+v", parallelCutoff, stats)
		}
		if !sameTable(got, want) {
			t.Fatal("parallel rematched table differs from full re-match")
		}
		if got.Root != want.Root {
			t.Fatalf("rematched root %+v, full root %+v", got.Root, want.Root)
		}
		got.Release()
		want.Release()
	}
	for _, evo := range evolutions {
		t.Run("target/"+evo.name, func(t *testing.T) {
			newTgt := small.Clone()
			evo.mutate(t, newTgt)
			m := NewMatcher(nil)
			m.Parallelism = 4
			prev := m.Tree(large, small)
			got, stats := m.RematchTarget(prev, newTgt)
			prev.Release()
			check(t, got, NewMatcher(nil).Tree(large, newTgt), stats)
		})
		t.Run("source/"+evo.name, func(t *testing.T) {
			newSrc := small.Clone()
			evo.mutate(t, newSrc)
			m := NewMatcher(nil)
			m.Parallelism = 4
			prev := m.Tree(small, large)
			got, stats := m.RematchSource(prev, newSrc)
			prev.Release()
			check(t, got, NewMatcher(nil).Tree(newSrc, large), stats)
		})
	}
}

// A rematch whose Done signal is already closed stops before rescoring:
// it returns a partial table — the copied cells, each equal to a full
// fill's — that cannot seed a later rematch, on either schedule.
func TestRematchCancelledPartial(t *testing.T) {
	large, small := rematchScale()
	newTgt := small.Clone()
	leafAt(newTgt, 3).Label = "CompletelyRenamedElement"
	full := NewMatcher(nil).Tree(large, newTgt)
	done := make(chan struct{})
	close(done)
	for _, par := range []int{1, 4} {
		prev := NewMatcher(nil).Tree(large, small)
		m := NewMatcher(nil)
		m.Parallelism = par
		m.Done = done
		got, stats := m.RematchTarget(prev, newTgt)
		filled, missing := 0, 0
		for idx := range got.flags {
			if !got.done(idx) {
				missing++
				continue
			}
			filled++
			if got.val[idx] != full.val[idx] || got.flags[idx] != full.flags[idx] {
				t.Fatalf("parallelism %d: cell %d diverges from a full fill", par, idx)
			}
		}
		if int64(filled) != stats.CopiedCells || int64(missing) != stats.RescoredCells {
			t.Fatalf("parallelism %d: %d filled / %d missing cells, want the %d copied / %d rescored of %+v",
				par, filled, missing, stats.CopiedCells, stats.RescoredCells, stats)
		}
		if got.complete() {
			t.Fatalf("parallelism %d: cancelled rematch reports a complete table", par)
		}
		if _, again := NewMatcher(nil).RematchTarget(got, newTgt); !again.Full {
			t.Fatalf("parallelism %d: a partial rematch seeded another rematch: %+v", par, again)
		}
	}
}
