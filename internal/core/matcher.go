package core

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"

	"qmatch/internal/lingo"
	"qmatch/internal/match"
	"qmatch/internal/obs"
	"qmatch/internal/xmltree"
)

// Matcher is the hybrid QMatch algorithm (paper §4, Fig. 3). It combines a
// linguistic label matcher, the property matcher, the level test and the
// recursive children match under the axis weights, producing a QoM for
// every source/target node pair.
type Matcher struct {
	// Weights are the axis weights of the match model. They are
	// normalized to sum to 1 when a match runs.
	Weights AxisWeights
	// Threshold is Fig. 3's "threshold value": the minimum QoM for a
	// child pair to count toward Rw and Rs. Default 0.5. Note that a
	// leaf pair with no label match but perfect structural agreement
	// reaches WP + WH + WC = 0.7 under the Table 2 weights, so the
	// children axis deliberately propagates structure-only overlap —
	// that is what lets QMatch score the paper's Library/Human example
	// (Fig. 9) far above the linguistic matcher. Correspondence
	// *selection* applies a separate label-evidence gate (see Hybrid).
	Threshold float64
	// Names is the pluggable linguistic algorithm for the label axis.
	Names *lingo.NameMatcher
	// Parallelism bounds the worker pool that fills the QoM pair table —
	// a whole table or a re-match's dirty cells alike. 1 (and 0, the
	// default) computes the cells sequentially on the calling goroutine;
	// n > 1 allows up to n workers; negative values select GOMAXPROCS.
	// Parallel and sequential computation produce bit-identical tables —
	// every cell is a pure function of the cells of strictly smaller
	// source subtrees, so only the schedule changes.
	Parallelism int
	// Scores is ignored: the kernel fill scores every label pair through
	// the batch scorer, which costs less than a shared cache lookup.
	//
	// Deprecated: no fill reads this field; it remains only so existing
	// callers that set it still compile.
	Scores *lingo.ScoreCache
	// Trace receives a phase span for the kernel interning and pair-table
	// fill of each Tree call (the Fig. 3 pipeline stages). Nil — the
	// default — disables tracing; the disabled path is a nil-check with
	// zero allocations.
	Trace *obs.Trace
	// Done aborts an in-flight fill (Tree or re-match) when closed: the
	// pair-table sweep stops between source rows (sequential) or height
	// levels (parallel), leaving the remaining cells uncomputed and the
	// trace span marked partial with the cell count filled so far. Nil —
	// the default — never aborts. The Engine's context-taking methods
	// wire this to ctx.Done().
	Done <-chan struct{}
	// Interner resolves a precompiled per-side vocabulary for a tree root.
	// Nil (the default), a nil return, or an Interned whose node count
	// disagrees with the tree fall back to interning at match entry.
	// The Engine's compiled-schema path installs a lookup over the
	// CompiledSchema artifacts of the current call, skipping the intern
	// walk for schemas compiled once up front.
	Interner func(root *xmltree.Node) *Interned
}

// parallelCutoff is the minimum pair-table size (cells) worth fanning out;
// below it goroutine startup dominates the saved work.
const parallelCutoff = 4096

// NewMatcher returns a QMatch matcher with the paper's Table 2 weights,
// threshold 0.5, and a linguistic matcher over the given thesaurus (nil
// selects the built-in default thesaurus).
func NewMatcher(th *lingo.Thesaurus) *Matcher {
	if th == nil {
		th = lingo.Default()
	}
	return &Matcher{
		Weights:   DefaultWeights(),
		Threshold: 0.5,
		Names:     lingo.NewNameMatcher(th),
	}
}

// Result holds the pair table of a tree match, each cell computed once from
// its children's rows — this is what realizes the paper's O(n·m) bound
// (DESIGN.md §5.1). The table is a compact hot plane, dense n×m and indexed
// by pre-order position: one float64 QoM value and one flag byte (class,
// label evidence, done) per cell, ~9 B where the full QoM breakdown takes
// 112. That is all a parent cell reads of its children and all selection
// needs; the full breakdown of the few cells a report or explanation asks
// for is rebuilt on demand by the same cell function the fill runs (see
// rebuilder).
type Result struct {
	Source, Target *xmltree.Node
	// Root is the QoM of the two schema roots — "the total match value
	// for the entire source schema tree" the algorithm reports.
	Root QoM

	srcNodes, tgtNodes []*xmltree.Node
	srcIdx, tgtIdx     map[*xmltree.Node]int
	val                []float64
	flags              []uint8
	kern               *simKernel

	// Iterative-fill side structures (built once per match in newResult):
	// child lists as pre-order indices, nesting levels, leaf flags, and the
	// root-pair level rule, all precomputed so the cell function touches
	// no node pointers on the hot path.
	srcKids, tgtKids     [][]int32
	srcLevels, tgtLevels []int32
	srcLeaf, tgtLeaf     []bool
	rootLevelEq          bool

	// Rebuild state, recorded by the sweep: the normalized weights and the
	// children-axis threshold of the fill, and the configuration of its
	// name matcher, without its memo caches. A kernel-less Result (a
	// re-match's) rebuilds its label axis through a private clone of
	// nameCfg, made on the first rebuild and guarded by mu — the matcher
	// that filled the table may since serve another match.
	w       AxisWeights
	th      float64
	nameCfg lingo.NameMatcher
	mu      sync.Mutex
	names   *lingo.NameMatcher

	// buf is the pooled slab set backing the slices above (see arena.go);
	// nil after Release.
	buf *matchBuffers
}

// Flag-byte layout of the hot plane.
const (
	flagClass uint8 = 0x07 // the cell's Class
	flagLabel uint8 = 0x08 // LabelKind != lingo.None: selection's label evidence
	flagDone  uint8 = 0x80 // the cell is computed
)

// done reports whether cell idx is computed.
func (r *Result) done(idx int) bool { return r.flags[idx]&flagDone != 0 }

func newResult(src, tgt *xmltree.Node) *Result {
	r := &Result{
		Source:   src,
		Target:   tgt,
		srcNodes: src.Nodes(),
		tgtNodes: tgt.Nodes(),
	}
	r.buf = acquireBuffers(r)
	for i, n := range r.srcNodes {
		r.srcIdx[n] = i
	}
	for i, n := range r.tgtNodes {
		r.tgtIdx[n] = i
	}
	buildSide(r.srcNodes, r.srcIdx, r.srcKids, r.srcLevels, r.srcLeaf, &r.buf.kidIdx)
	buildSide(r.tgtNodes, r.tgtIdx, r.tgtKids, r.tgtLevels, r.tgtLeaf, &r.buf.kidIdx)
	r.rootLevelEq = levelEqual(src, tgt)
	return r
}

// buildSide precomputes the per-node fill inputs of one tree side: child
// lists as pre-order indices (subslices of the shared backing store, which
// acquireBuffers sized exactly so the appends never reallocate), nesting
// levels (the side root's cached level, each child one deeper), and leaf
// flags. One O(n) walk replaces the per-cell Level/IsLeaf/pointer chasing
// a recursive fill would do.
func buildSide(nodes []*xmltree.Node, idx map[*xmltree.Node]int, kids [][]int32, levels []int32, leaf []bool, backing *[]int32) {
	levels[0] = int32(nodes[0].Level())
	for i, nd := range nodes {
		leaf[i] = len(nd.Children) == 0
		start := len(*backing)
		for _, c := range nd.Children {
			ci := int32(idx[c])
			*backing = append(*backing, ci)
			levels[ci] = levels[i] + 1
		}
		kids[i] = (*backing)[start:len(*backing):len(*backing)]
	}
}

// cell returns the dense index of a pair, or -1 when either node is not
// part of the matched trees.
func (r *Result) cell(s, t *xmltree.Node) int {
	i, ok := r.srcIdx[s]
	if !ok {
		return -1
	}
	j, ok := r.tgtIdx[t]
	if !ok {
		return -1
	}
	return i*len(r.tgtNodes) + j
}

// PairQoM is one entry of the pair table.
type PairQoM struct {
	Source, Target *xmltree.Node
	QoM            QoM
}

// Tree matches the source tree against the target tree, computing the QoM
// of every node pair (including pairs at different relative depths, as in
// the paper's PurchaseInfo vs Purchase Order example) and returns the
// complete result. With Parallelism beyond 1 and a table large enough to
// be worth it, the computation fans out over a bounded worker pool (see
// sweep); the resulting table is bit-identical to the sequential one.
func (m *Matcher) Tree(src, tgt *xmltree.Node) *Result {
	r := newResult(src, tgt)
	m.sweep(r, nil, nil)
	return r
}

// sweep is the one pair-table fill driver: it computes the cells of the
// given source rows × target columns of r, every other cell being already
// complete. rows nil selects every row, otherwise rows must be in
// descending pre-order (children before parents); cols nil selects every
// column. Tree fills the whole table, the incremental re-match only its
// dirty rows or columns.
//
// The dense kernel scores every vocabulary pair up front, which only
// amortizes when the cells to fill outnumber the label pairs — always true
// for a whole table (a side has at most as many labels as nodes), rarely
// for a typical delta, whose few cells are scored directly through the
// name matcher instead.
//
// One worker sweeps the rows in descending pre-order on the calling
// goroutine. Several workers (Parallelism beyond 1 and at least
// parallelCutoff cells to fill) fill the kernel rows in parallel and then
// the rows one subtree-height level at a time: the QoM of (s, t) depends
// only on pairs whose source is a child of s — a strictly smaller subtree —
// so the rows of one level are independent and fan out across the pool,
// while a barrier between levels makes every lower level's cells visible
// before the next level reads them. Each worker writes only the rows it
// owns and scores labels through its own NameMatcher (the thesaurus is
// shared read-only, the memo caches are per worker). Either schedule stops
// between rows or levels once Done fires, leaving the rest uncomputed.
//
// Only a whole-table fill records the intern and pair-table spans; a
// re-match reports its rescoring in its own rematch span.
func (m *Matcher) sweep(r *Result, rows, cols []int32) {
	nr, nc := len(r.srcNodes), len(r.tgtNodes)
	if rows != nil {
		nr = len(rows)
	}
	if cols != nil {
		nc = len(cols)
	}
	cells := int64(nr) * int64(nc)
	par := m.parallelism()
	if cells < parallelCutoff {
		par = 1
	}
	tr := m.Trace
	if rows != nil || cols != nil {
		tr = nil
	}

	// Goroutine labels make the worker fan-out legible in CPU profiles:
	// `go tool pprof -tags` splits samples by workload (root-label pair)
	// and phase (kernel vs pairtable). Labels set at spawn time are
	// inherited by the child goroutines, so one Do per phase covers the
	// whole pool.
	var workload string
	if par > 1 {
		workload = r.Source.Label + "->" + r.Target.Label
	}
	sp := tr.StartSpan(obs.PhaseIntern)
	if par > 1 {
		pprof.Do(context.Background(),
			pprof.Labels("qmatch_workload", workload, "qmatch_phase", "kernel"),
			func(context.Context) { m.buildKernel(r, cells, par) })
	} else {
		m.buildKernel(r, cells, 1)
	}
	if sp != nil && r.kern != nil {
		sp.SetNodes(len(r.kern.src.Labels), len(r.kern.tgt.Labels))
		sp.SetCells(r.kern.logicalCells())
		sp.SetWorkers(par)
	}
	sp.End()

	sp = tr.StartSpan(obs.PhasePairTable)
	r.w, r.th, r.nameCfg = m.Weights.Normalized(), m.Threshold, m.Names.Config()
	partial := false
	if par == 1 {
		tw := &treeWorker{names: m.Names, r: r}
		for k := 0; k < nr; k++ {
			if m.aborted() {
				partial = true
				break
			}
			i := len(r.srcNodes) - 1 - k
			if rows != nil {
				i = int(rows[k])
			}
			tw.computeCols(i, cols)
		}
	} else {
		pprof.Do(context.Background(),
			pprof.Labels("qmatch_workload", workload, "qmatch_phase", "pairtable"),
			func(context.Context) { partial = m.sweepLevels(r, rows, cols, par, sp) })
	}
	if sp != nil {
		sp.SetNodes(len(r.srcNodes), len(r.tgtNodes))
		sp.SetWorkers(par)
		sp.SetCells(r.filled())
		if partial {
			sp.MarkPartial()
		}
	}
	sp.End()
	if r.done(0) { // cell (0, 0): the two roots
		(&treeWorker{names: m.Names, r: r}).cell(0, 0, &r.Root)
	}
}

// buildKernel interns both sides and fills the similarity kernel over par
// workers when the cells to fill outnumber the label pairs (see sweep);
// otherwise r.kern stays nil and the fill scores cells directly.
func (m *Matcher) buildKernel(r *Result, cells int64, par int) {
	si, ti := m.interned(r.Source, r.srcNodes), m.interned(r.Target, r.tgtNodes)
	if cells >= int64(len(si.Labels))*int64(len(ti.Labels)) {
		r.kern = newKernelFrom(si, ti, r.buf)
		r.kern.fill(m.Names, par)
	}
}

// sweepLevels is the several-worker schedule of sweep: the given rows
// grouped by subtree height, ascending, each level fanned out over par
// workers with a barrier between levels. It reports whether Done cut the
// sweep short.
func (m *Matcher) sweepLevels(r *Result, rows, cols []int32, par int, sp *obs.ActiveSpan) bool {
	// Subtree heights: srcNodes is in pre-order, so children follow
	// parents and a reverse sweep sees every child before its parent.
	heights := make([]int, len(r.srcNodes))
	maxH := 0
	for i := len(r.srcNodes) - 1; i >= 0; i-- {
		h := 0
		for _, c := range r.srcKids[i] {
			if ch := heights[c] + 1; ch > h {
				h = ch
			}
		}
		heights[i] = h
		if h > maxH {
			maxH = h
		}
	}
	levels := make([][]int32, maxH+1)
	if rows == nil {
		for i := range r.srcNodes {
			levels[heights[i]] = append(levels[heights[i]], int32(i))
		}
	} else {
		for _, i := range rows {
			levels[heights[i]] = append(levels[heights[i]], i)
		}
	}
	nc := len(r.tgtNodes)
	if cols != nil {
		nc = len(cols)
	}

	// Worker 0 scores through m.Names itself (the caller blocks until the
	// sweep ends, and a kernel-less re-match fill profits from its warm
	// memos); the others through clones.
	workers := make([]*treeWorker, par)
	for i := range workers {
		names := m.Names
		if i > 0 {
			names = m.Names.Clone()
		}
		workers[i] = &treeWorker{names: names, r: r}
	}
	for li, level := range levels {
		if m.aborted() {
			return true
		}
		if len(level) == 0 {
			continue
		}
		n := min2(len(workers), len(level))
		// One child span per height level: the per-level breakdown shows
		// which stratum of the fill dominates (the wide leaf levels of a
		// bushy schema vs the few expensive rows near the root).
		lsp := sp.Child(obs.PhaseLevel)
		lsp.SetLevel(li + 1)
		lsp.SetNodes(len(level), len(r.tgtNodes))
		lsp.SetCells(int64(len(level)) * int64(nc))
		lsp.SetWorkers(n)
		jobs := make(chan int32, len(level))
		for _, si := range level {
			jobs <- si
		}
		close(jobs)
		var wg sync.WaitGroup
		for _, tw := range workers[:n] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for si := range jobs {
					if m.aborted() {
						return
					}
					tw.computeCols(int(si), cols)
				}
			}()
		}
		wg.Wait()
		if m.aborted() {
			lsp.MarkPartial()
		}
		lsp.End()
	}
	return m.aborted()
}

// interned resolves the vocabulary of one side: the Interner's
// precompiled value when one is installed and consistent with the tree,
// otherwise a fresh interning of the node list. The consistency check
// (node count) guards against an interner serving a stale artifact for a
// since-mutated tree.
func (m *Matcher) interned(root *xmltree.Node, nodes []*xmltree.Node) *Interned {
	if m.Interner != nil {
		if in := m.Interner(root); in != nil && len(in.LabelID) == len(nodes) {
			return in
		}
	}
	return Intern(nodes)
}

// aborted reports whether the Done signal has fired. Checked between
// source rows and height levels, never per cell — the disabled path is a
// single nil comparison.
func (m *Matcher) aborted() bool {
	if m.Done == nil {
		return false
	}
	select {
	case <-m.Done:
		return true
	default:
		return false
	}
}

// filled returns the number of computed pair-table cells, a scan of the
// done flags (only traced paths ask).
func (r *Result) filled() int64 {
	var n int64
	for _, f := range r.flags {
		if f&flagDone != 0 {
			n++
		}
	}
	return n
}

// parallelism resolves the effective worker bound.
func (m *Matcher) parallelism() int {
	switch {
	case m.Parallelism < 0:
		return runtime.GOMAXPROCS(0)
	case m.Parallelism == 0:
		return 1
	default:
		return m.Parallelism
	}
}

// MatchNodes computes the QoM of a single subtree pair.
func (m *Matcher) MatchNodes(s, t *xmltree.Node) QoM {
	r := m.Tree(s, t)
	q := r.Root
	r.Release()
	return q
}

// treeWorker computes pair-table cells with a dedicated NameMatcher, so
// several workers can fill disjoint rows of one Result concurrently. The
// name matcher scores labels only when the Result has no kernel.
type treeWorker struct {
	names *lingo.NameMatcher
	r     *Result
}

// computeCols fills the given target columns of source row i (nil = every
// column). Rows are filled in an order where every child row precedes its
// parent's (descending pre-order on one worker, ascending subtree height
// on several), so the children axis reads completed rows by index instead
// of recursing. The column subset serves the incremental re-match: clean
// columns are copied from the previous table before the sweep starts, so
// they are complete for every row. Each cell's full QoM is built on the
// stack and only its value and flag byte are stored. Cell values are
// bit-identical to the recursive reference fill the equivalence and
// cancellation tests compare against.
func (tw *treeWorker) computeCols(i int, cols []int32) {
	r := tw.r
	base := i * len(r.tgtNodes)
	nj := len(r.tgtNodes)
	if cols != nil {
		nj = len(cols)
	}
	for cj := 0; cj < nj; cj++ {
		j := cj
		if cols != nil {
			j = int(cols[cj])
		}
		var q QoM
		tw.cell(i, j, &q)
		f := uint8(q.Class) | flagDone
		if q.LabelKind != lingo.None {
			f |= flagLabel
		}
		r.val[base+j], r.flags[base+j] = q.Value, f
	}
}

// cell computes the full QoM of cell (i, j) into q: the label and property
// axes from the kernel (or, without one, the name matcher and
// MatchProperties), the level axis from the precomputed levels, and the
// children axis from the value plane of the child rows, which must be
// complete. It is the one cell rule of the sweep and of every rebuild.
func (tw *treeWorker) cell(i, j int, q *QoM) {
	r := tw.r
	if k := r.kern; k != nil {
		q.Label, q.LabelKind = k.labelAt(i, j)
		q.Properties, q.PropertiesKind = k.propAt(i, j)
	} else {
		s, t := r.srcNodes[i], r.tgtNodes[j]
		q.Label, q.LabelKind = tw.names.Match(s.Label, t.Label)
		pq := MatchProperties(s.Props, t.Props)
		q.Properties, q.PropertiesKind = pq.Score, pq.Kind
	}

	if r.srcLeaf[i] && r.tgtLeaf[j] {
		// Leaf match (Eq. 2): label and properties compared; level
		// and children match exactly by default — the constant
		// C = WH + WC.
		q.Leaf = true
		q.LevelExact = true
		q.Level = 1
		q.SubtreeWeight, q.CardinalityRatio = 1, 1
		q.Children = 1
		q.Coverage = Total
		q.ChildrenAllExact = true
	} else {
		// The root pair compares tree heights, every other pair
		// nesting levels (levelEqual); rootLevelEq caches the former.
		if i == 0 && j == 0 {
			q.LevelExact = r.rootLevelEq
		} else {
			q.LevelExact = r.srcLevels[i] == r.tgtLevels[j]
		}
		if q.LevelExact {
			q.Level = 1
		}
		// Children axis (Eq. 3–5): each source child contributes its
		// best-matching target candidate when that match clears the
		// threshold. Candidates are the target's children plus the
		// target node itself — the paper's §2.2 walkthrough matches
		// the source child PurchaseInfo against the target *root*
		// Purchase Order, so a source nested one level deeper than
		// the target can still achieve coverage.
		//
		// Two notions are tracked separately. The *quantitative*
		// Rw/Rs follow Fig. 3's threshold on the QoM value, which
		// lets pure structural agreement propagate (the Fig. 9
		// behaviour). The *qualitative* coverage classification
		// (total/partial, §2.1) additionally requires the child's
		// best pair not to classify as NoMatch — a label-less
		// structural coincidence contributes weight but does not
		// make a child "have a match". Only the best candidate's
		// index is tracked; its Class is read once at the end (the
		// zero Class when nothing beat the zero QoM). The threshold
		// carries an epsilon for a child sitting exactly at it under
		// inexact float sums.
		mcols := len(r.tgtNodes)
		th := r.th - 1e-9
		sum := 0.0
		count := 0
		covered := 0
		allExact := true
		kids, tKids := r.srcKids[i], r.tgtKids[j]
		for _, ci := range kids {
			row := r.val[int(ci)*mcols : (int(ci)+1)*mcols]
			bestIdx := -1
			bestVal := 0.0
			for _, cj := range tKids {
				if v := row[cj]; v > bestVal {
					bestVal, bestIdx = v, int(cj)
				}
			}
			if !r.srcLeaf[ci] {
				if v := row[j]; v > bestVal {
					bestVal, bestIdx = v, j
				}
			}
			if bestVal >= th {
				sum += bestVal
				count++
				var cls Class
				if bestIdx >= 0 {
					cls = Class(r.flags[int(ci)*mcols+bestIdx] & flagClass)
				}
				if cls != NoMatch {
					covered++
					if cls != TotalExact {
						allExact = false
					}
				}
			}
		}
		if n := len(kids); n > 0 {
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

	w := &r.w
	q.Value = w.Label*q.Label + w.Properties*q.Properties +
		w.Level*q.Level + w.Children*q.Children
	q.classify()
}

// levelEqual implements the level axis (QoMH). The paper compares nesting
// depth for nodes inside a schema ("Lines and Items ... are at different
// levels") but compares overall tree height for the two roots ("given the
// height difference between the schema trees, there is no level match
// between the roots"); both rules are honored here. See DESIGN.md §5.6.
func levelEqual(s, t *xmltree.Node) bool {
	if s.Parent() == nil && t.Parent() == nil {
		return s.MaxDepth() == t.MaxDepth()
	}
	return s.Level() == t.Level()
}

// rebuilder returns a worker whose cell function recomputes the full QoM
// of r's computed cells. A Result with a kernel rebuilds from it, lock-free
// (the kernel and the plane are read-only once filled). A kernel-less one
// scores labels through its private name matcher, cloned from nameCfg on
// the first rebuild; r.mu then serializes the rebuilds, and the caller must
// call endRebuild when done.
func (r *Result) rebuilder() *treeWorker {
	tw := &treeWorker{r: r}
	if r.kern == nil {
		r.mu.Lock()
		if r.names == nil {
			r.names = r.nameCfg.Clone()
		}
		tw.names = r.names
	}
	return tw
}

// endRebuild ends a rebuilder's use.
func (r *Result) endRebuild() {
	if r.kern == nil {
		r.mu.Unlock()
	}
}

// rebuild returns the full QoM of the computed cell idx.
func (r *Result) rebuild(idx int) QoM {
	var q QoM
	m := len(r.tgtNodes)
	r.rebuilder().cell(idx/m, idx%m, &q)
	r.endRebuild()
	return q
}

// Pair returns the QoM of a specific node pair, rebuilt from the table.
func (r *Result) Pair(s, t *xmltree.Node) (QoM, bool) {
	idx := r.cell(s, t)
	if idx < 0 || !r.done(idx) {
		return QoM{}, false
	}
	return r.rebuild(idx), true
}

// value returns the QoM value of a node pair straight from the plane.
func (r *Result) value(s, t *xmltree.Node) (float64, bool) {
	idx := r.cell(s, t)
	if idx < 0 || !r.done(idx) {
		return 0, false
	}
	return r.val[idx], true
}

// Candidates threshold-scans the value plane: every computed pair whose
// QoM value is at least th — with requireLabelEvidence, only pairs whose
// labels match at all (LabelKind != None) — as scored pairs in (source
// pre-order, target pre-order) order. This is selection's input without
// materializing the table: match.Select drops pairs below its threshold
// before a stable sort, so Select(Candidates(th, gate), th) equals Select
// over every gated pair of the table.
func (r *Result) Candidates(th float64, requireLabelEvidence bool) []match.ScoredPair {
	need := flagDone
	if requireLabelEvidence {
		need |= flagLabel
	}
	var out []match.ScoredPair
	m := len(r.tgtNodes)
	for idx, v := range r.val {
		if v >= th && r.flags[idx]&need == need {
			out = append(out, match.ScoredPair{Source: r.srcNodes[idx/m], Target: r.tgtNodes[idx%m], Score: v})
		}
	}
	return out
}

// Pairs returns every computed pair of the table, with its full QoM
// rebuilt, in deterministic (source pre-order, target pre-order) order.
// It rebuilds the whole table — a diagnostic path; selection reads
// Candidates.
func (r *Result) Pairs() []PairQoM {
	out := make([]PairQoM, 0, len(r.flags))
	m := len(r.tgtNodes)
	tw := r.rebuilder()
	defer r.endRebuild()
	for idx := range r.flags {
		if r.done(idx) {
			p := PairQoM{Source: r.srcNodes[idx/m], Target: r.tgtNodes[idx%m]}
			tw.cell(idx/m, idx%m, &p.QoM)
			out = append(out, p)
		}
	}
	return out
}

// BestForSource returns the target node with the highest QoM for the given
// source node, or nil when the source has no scored pairs.
func (r *Result) BestForSource(s *xmltree.Node) (*xmltree.Node, QoM) {
	i, ok := r.srcIdx[s]
	if !ok {
		return nil, QoM{}
	}
	best := -1
	base := i * len(r.tgtNodes)
	for j := range r.tgtNodes {
		if r.done(base+j) && (best < 0 || r.val[base+j] > r.val[best]) {
			best = base + j
		}
	}
	if best < 0 {
		return nil, QoM{}
	}
	return r.tgtNodes[best-base], r.rebuild(best)
}

// TopPairs returns the n highest-QoM pairs, ties broken by source then
// target pre-order position. Selection runs a bounded min-heap in a single
// pass over the value plane — O(cells·log n) and n heap entries instead of
// materializing and sorting all n·m pairs, which on the PIR×PDB table
// (867k cells) is the difference between microseconds and a full
// sort-the-world pass (see BenchmarkTopPairs). Only the n winners have
// their full QoM rebuilt.
func (r *Result) TopPairs(n int) []PairQoM {
	if n <= 0 {
		return nil
	}
	type entry struct {
		idx   int
		value float64
	}
	// worse reports whether a ranks strictly below b: lower value, or at
	// equal value a later table position — matching the ordering a stable
	// descending sort over the pre-order pair list produces.
	worse := func(a, b entry) bool {
		if a.value != b.value {
			return a.value < b.value
		}
		return a.idx > b.idx
	}
	// Min-heap of the current top n, worst entry at the root.
	heap := make([]entry, 0, min2(n, len(r.val)))
	siftUp := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !worse(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	siftDown := func() {
		i := 0
		for {
			l := 2*i + 1
			if l >= len(heap) {
				break
			}
			least := l
			if rc := l + 1; rc < len(heap) && worse(heap[rc], heap[l]) {
				least = rc
			}
			if !worse(heap[least], heap[i]) {
				break
			}
			heap[i], heap[least] = heap[least], heap[i]
			i = least
		}
	}
	for idx, v := range r.val {
		if !r.done(idx) {
			continue
		}
		e := entry{idx: idx, value: v}
		switch {
		case len(heap) < n:
			heap = append(heap, e)
			siftUp(len(heap) - 1)
		case worse(heap[0], e):
			heap[0] = e
			siftDown()
		}
	}
	sort.Slice(heap, func(i, j int) bool { return worse(heap[j], heap[i]) })
	out := make([]PairQoM, len(heap))
	m := len(r.tgtNodes)
	tw := r.rebuilder()
	defer r.endRebuild()
	for i, e := range heap {
		out[i] = PairQoM{Source: r.srcNodes[e.idx/m], Target: r.tgtNodes[e.idx%m]}
		tw.cell(e.idx/m, e.idx%m, &out[i].QoM)
	}
	return out
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
