package core

import (
	"bytes"
	"reflect"

	"qmatch/internal/lingo"
	"qmatch/internal/xmltree"
)

// reference is the recursive, direct-scoring QMatch fill (paper Fig. 3 as
// written): every cell scores its labels through the name matcher and its
// properties through MatchProperties — no kernel — and the children axis
// recurses over node pointers with a memo, instead of reading finished rows
// by index. It shares no fill code with the production sweep, which makes
// it the oracle the equivalence tests compare the sweep against.
type reference struct {
	m     *Matcher
	names *lingo.NameMatcher
	r     *Result // pre-order node indices only; the oracle keeps its own table
	w     AxisWeights
	table []QoM
	done  []bool
}

// referenceTable fills the whole src × tgt pair table through the oracle
// and returns it as full QoMs in the production table's dense layout.
func referenceTable(m *Matcher, src, tgt *xmltree.Node) []QoM {
	r := newResult(src, tgt)
	cells := len(r.srcNodes) * len(r.tgtNodes)
	ref := &reference{m: m, names: m.Names, r: r, w: m.Weights.Normalized(),
		table: make([]QoM, cells), done: make([]bool, cells)}
	for _, s := range ref.r.srcNodes {
		for _, t := range ref.r.tgtNodes {
			ref.pair(s, t)
		}
	}
	r.Release()
	return ref.table
}

// pair computes (or returns the memoized) QoM of one node pair.
func (ref *reference) pair(s, t *xmltree.Node) QoM {
	r := ref.r
	idx := r.srcIdx[s]*len(r.tgtNodes) + r.tgtIdx[t]
	if ref.done[idx] {
		return ref.table[idx]
	}
	// Break recursive-schema cycles defensively: mark in-progress pairs
	// with the zero entry (schema trees are acyclic, so this only guards
	// against malformed input).
	ref.done[idx] = true

	var q QoM
	q.Label, q.LabelKind = ref.names.Match(s.Label, t.Label)
	pq := MatchProperties(s.Props, t.Props)
	q.Properties, q.PropertiesKind = pq.Score, pq.Kind

	if s.IsLeaf() && t.IsLeaf() {
		// Leaf match (Eq. 2): level and children match exactly.
		q.Leaf = true
		q.LevelExact = true
		q.Level = 1
		q.SubtreeWeight, q.CardinalityRatio = 1, 1
		q.Children = 1
		q.Coverage = Total
		q.ChildrenAllExact = true
	} else {
		q.LevelExact = levelEqual(s, t)
		if q.LevelExact {
			q.Level = 1
		}
		// Children axis (Eq. 3–5): each source child's best candidate
		// among the target's children and the target itself, counted
		// when it clears the threshold; coverage additionally requires
		// the best pair not to classify as NoMatch.
		sum := 0.0
		count := 0
		covered := 0
		allExact := true
		for _, cs := range s.Children {
			var best QoM
			for _, ct := range t.Children {
				if cq := ref.pair(cs, ct); cq.Value > best.Value {
					best = cq
				}
			}
			if !cs.IsLeaf() {
				if cq := ref.pair(cs, t); cq.Value > best.Value {
					best = cq
				}
			}
			if best.Value >= ref.m.Threshold-1e-9 {
				sum += best.Value
				count++
				if best.Class != NoMatch {
					covered++
					if best.Class != TotalExact {
						allExact = false
					}
				}
			}
		}
		if n := len(s.Children); n > 0 {
			q.SubtreeWeight = sum / float64(n)
			q.CardinalityRatio = float64(count) / float64(n)
			switch {
			case covered == n:
				q.Coverage = Total
			case covered > 0:
				q.Coverage = Partial
			}
		}
		q.Children = (q.SubtreeWeight + q.CardinalityRatio) / 2
		q.ChildrenAllExact = allExact && covered > 0
	}

	q.Value = ref.w.Label*q.Label + ref.w.Properties*q.Properties +
		ref.w.Level*q.Level + ref.w.Children*q.Children
	q.classify()

	ref.table[idx] = q
	return q
}

// rebuiltTable returns every cell of r with its full QoM rebuilt, in the
// dense layout referenceTable returns (the zero QoM where not computed).
func rebuiltTable(r *Result) []QoM {
	out := make([]QoM, len(r.flags))
	m := len(r.tgtNodes)
	tw := r.rebuilder()
	defer r.endRebuild()
	for idx := range out {
		if r.done(idx) {
			tw.cell(idx/m, idx%m, &out[idx])
		}
	}
	return out
}

// sameTable reports whether two results hold the same pair table: equal
// value and flag planes, and equal full QoMs rebuilt from them.
func sameTable(a, b *Result) bool {
	return reflect.DeepEqual(a.val, b.val) && bytes.Equal(a.flags, b.flags) &&
		reflect.DeepEqual(rebuiltTable(a), rebuiltTable(b))
}
