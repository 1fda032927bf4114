package core

import (
	"sync"
	"sync/atomic"

	"qmatch/internal/lingo"
	"qmatch/internal/xmltree"
)

// This file implements the vocabulary-interned similarity kernel. The
// hybrid fill (Fig. 3) needs a label score and a property score for every
// pair-table cell — n·m linguistic comparisons on the naive path, 867k on
// the corpus' largest workload (231×3753 nodes). The kernel interns both
// vocabularies at match entry, scores each unique (label, label) and
// (propset, propset) combination exactly once into dense matrices, and
// turns the per-cell axis work of the pair-table sweep (computeCols) into
// two array lookups. The linguistic cost of a match drops from O(n·m) to
// O(|Lₛ|·|Lₜ|) (see DESIGN.md §5.9). How much that saves depends on the
// vocabulary: small and synthetic schemas repeat labels heavily, but the
// protein schemas intern to 231×3752 distinct labels (866,712 label pairs,
// nearly one per cell), so there the kernel's win is the batch scorer's
// dense token matrix — each label pair costs array arithmetic, not string
// work — not deduplication.
//
// The matrices are stored structure-of-arrays (scores and kinds apart) in
// a tile-blocked layout — see the blocked type.

// Tile geometry of the blocked matrices: 8 rows × 256 columns = 2048
// entries (16 KiB of float64 scores) per tile. Columns dominate because
// both the fill and the pair-table sweep walk target-major — a 256-entry
// run is long enough to stream, while 8-row tiles keep a parent row and
// its children's rows (nearby in pre-order, hence usually in vocabulary
// id) inside one resident tile during the children-axis loop.
const (
	tileRShift = 3
	tileCShift = 8
	tileRMask  = 1<<tileRShift - 1
	tileCMask  = 1<<tileCShift - 1
)

// blocked maps (row, col) positions of an R×C matrix onto a flat slice
// laid out as row-major tiles of row-major entries. Entries of one tile
// are contiguous, so sweeps that stay within a tile row touch long linear
// runs, and the padding to whole tiles is the only waste.
type blocked struct {
	tilesPerRow int
}

// newBlocked sizes a blocked layout for a rows×cols matrix, returning the
// layout and the padded entry count to allocate.
func newBlocked(rows, cols int) (blocked, int) {
	tpr := (cols + tileCMask) >> tileCShift
	tpc := (rows + tileRMask) >> tileRShift
	return blocked{tilesPerRow: tpr}, tpc * tpr << (tileRShift + tileCShift)
}

// idx returns the flat position of matrix entry (i, j).
func (b blocked) idx(i, j int32) int {
	return (int(i>>tileRShift)*b.tilesPerRow+int(j>>tileCShift))<<(tileRShift+tileCShift) |
		int(i&tileRMask)<<tileCShift | int(j&tileCMask)
}

// Interned is the per-side vocabulary of one schema tree: the dense label
// and normalized-property-set ids of every node in pre-order, plus the
// id → entry tables. Interning one side is independent of the other side,
// so an Interned value can be computed once per schema (at artifact compile
// time) and reused across every match the schema participates in — the
// compiled-schema fast path. All fields are read-only after Intern returns.
type Interned struct {
	// LabelID and PropID map node pre-order index → dense vocabulary id.
	LabelID []int32
	PropID  []int32
	// Labels and Props map dense id → vocabulary entry. Props entries are
	// Norm-canonicalized.
	Labels []string
	Props  []xmltree.Properties
}

// Intern builds the vocabulary of a pre-order node list: dense ids in
// first-appearance order for the distinct labels, and for the distinct
// Norm-canonicalized property sets (MatchProperties begins by norming both
// sides, so two sets equal after Norm always score alike).
func Intern(nodes []*xmltree.Node) *Interned {
	in := &Interned{
		LabelID: make([]int32, len(nodes)),
		PropID:  make([]int32, len(nodes)),
		Labels:  make([]string, 0, 64),
		Props:   make([]xmltree.Properties, 0, 32),
	}
	labelIndex := make(map[string]int32, 64)
	propIndex := make(map[xmltree.Properties]int32, 32)
	for i, n := range nodes {
		id, ok := labelIndex[n.Label]
		if !ok {
			id = int32(len(in.Labels))
			in.Labels = append(in.Labels, n.Label)
			labelIndex[n.Label] = id
		}
		in.LabelID[i] = id

		p := n.Props.Norm()
		pid, ok := propIndex[p]
		if !ok {
			pid = int32(len(in.Props))
			in.Props = append(in.Props, p)
			propIndex[p] = pid
		}
		in.PropID[i] = pid
	}
	return in
}

// simKernel holds the interned vocabularies and score matrices of one
// pair-table computation. All fields are written during the fill phase and
// read-only afterwards, so pair-table workers share a kernel freely.
// Scores and kinds live in separate planes (structure-of-arrays): the
// children-axis sweep reads only scores, and kinds pack to one byte.
type simKernel struct {
	src, tgt *Interned

	lb         blocked // label-matrix layout (|Lₛ|×|Lₜ|)
	labelScore []float64
	labelKind  []uint8

	pb        blocked // property-matrix layout (|Pₛ|×|Pₜ|)
	propScore []float64
	propKind  []uint8
}

// newKernelFrom builds a kernel over pre-interned per-side vocabularies —
// the entry point of the compiled-schema path, which skips the interning
// walk entirely. The score matrices still must be filled per pair (they
// depend on both vocabularies). When b is non-nil the score planes reuse
// its pooled slabs; stale contents are harmless because the fill writes
// every logical entry and the accessors never touch tile padding.
func newKernelFrom(src, tgt *Interned, b *matchBuffers) *simKernel {
	k := &simKernel{src: src, tgt: tgt}
	var ln, pn int
	k.lb, ln = newBlocked(len(src.Labels), len(tgt.Labels))
	k.pb, pn = newBlocked(len(src.Props), len(tgt.Props))
	if b == nil {
		b = &matchBuffers{} // unpooled scratch
	}
	b.lKind = grow(b.lKind, ln)
	b.pKind = grow(b.pKind, pn)
	b.lScore = grow(b.lScore, ln)
	b.pScore = grow(b.pScore, pn)
	k.labelKind, k.propKind = b.lKind, b.pKind
	k.labelScore, k.propScore = b.lScore, b.pScore
	return k
}

// logicalCells is the number of scored matrix entries (excluding tile
// padding), the count the intern trace span reports.
func (k *simKernel) logicalCells() int64 {
	return int64(len(k.src.Labels)*len(k.tgt.Labels) + len(k.src.Props)*len(k.tgt.Props))
}

// labelAt returns the label-axis outcome for the pair of nodes at source
// pre-order index i and target pre-order index j.
func (k *simKernel) labelAt(i, j int) (float64, lingo.Kind) {
	idx := k.lb.idx(k.src.LabelID[i], k.tgt.LabelID[j])
	return k.labelScore[idx], lingo.Kind(k.labelKind[idx])
}

// propAt is labelAt for the property axis.
func (k *simKernel) propAt(i, j int) (float64, lingo.Kind) {
	idx := k.pb.idx(k.src.PropID[i], k.tgt.PropID[j])
	return k.propScore[idx], lingo.Kind(k.propKind[idx])
}

// setLabel stores one label-matrix entry at (label id, label id).
func (k *simKernel) setLabel(i, j int32, s float64, kind lingo.Kind) {
	idx := k.lb.idx(i, j)
	k.labelScore[idx] = s
	k.labelKind[idx] = uint8(kind)
}

// setProp stores one property-matrix entry at (prop id, prop id).
func (k *simKernel) setProp(i, j int32, p PropertyQoM) {
	idx := k.pb.idx(i, j)
	k.propScore[idx] = p.Score
	k.propKind[idx] = uint8(p.Kind)
}

// fillLabelRows scores rows [lo, hi) of the label matrix through a batch
// scorer.
func (k *simKernel) fillLabelRows(ks *lingo.KernelScorer, lo, hi int) {
	for i := lo; i < hi; i++ {
		for j := range k.tgt.Labels {
			s, kind := ks.Score(int32(i), int32(j))
			k.setLabel(int32(i), int32(j), s, kind)
		}
	}
}

// fillPropRows scores rows [lo, hi) of the property matrix.
func (k *simKernel) fillPropRows(lo, hi int) {
	for i := lo; i < hi; i++ {
		sp := k.src.Props[i]
		for j, tp := range k.tgt.Props {
			k.setProp(int32(i), int32(j), MatchProperties(sp, tp))
		}
	}
}

// fill computes both matrices over par workers (par <= 1 fills on the
// calling goroutine), each worker taking the next unfilled matrix row.
// The batch scorer is built once on the calling goroutine (construction
// mutates the matcher's memos) and then shared read-only — Score is
// concurrency-safe — so the per-worker matcher clones of the pair-table
// sweep are not needed here. Every entry is a pure function of its two
// vocabulary entries, so the result is bit-identical for any par.
func (k *simKernel) fill(names *lingo.NameMatcher, par int) {
	ks := names.NewKernelScorer(k.src.Labels, k.tgt.Labels)
	nl, np := len(k.src.Labels), len(k.src.Props)
	if par <= 1 {
		k.fillLabelRows(ks, 0, nl)
		k.fillPropRows(0, np)
		return
	}
	var next atomic.Int64 // rows [0, nl) are label rows, then np prop rows
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < nl+np; i = int(next.Add(1)) - 1 {
				if i < nl {
					k.fillLabelRows(ks, i, i+1)
				} else {
					k.fillPropRows(i-nl, i-nl+1)
				}
			}
		}()
	}
	wg.Wait()
}
