package core

import (
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
	r     *Result
	w     AxisWeights
}

// referenceTable fills the whole src × tgt pair table through the oracle
// and returns it in the production table's dense layout.
func referenceTable(m *Matcher, src, tgt *xmltree.Node) []QoM {
	ref := &reference{m: m, names: m.Names, r: newResult(src, tgt), w: m.Weights.Normalized()}
	for _, s := range ref.r.srcNodes {
		for _, t := range ref.r.tgtNodes {
			ref.pair(s, t)
		}
	}
	return ref.r.table
}

// pair computes (or returns the memoized) QoM of one node pair.
func (ref *reference) pair(s, t *xmltree.Node) QoM {
	r := ref.r
	idx := r.srcIdx[s]*len(r.tgtNodes) + r.tgtIdx[t]
	if r.done[idx] {
		return r.table[idx]
	}
	// Break recursive-schema cycles defensively: mark in-progress pairs
	// with the zero entry (schema trees are acyclic, so this only guards
	// against malformed input). The table slab is pooled and arrives
	// dirty, so the zero entry is written explicitly.
	r.done[idx] = true
	r.table[idx] = QoM{}

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

	r.table[idx] = q
	return q
}
