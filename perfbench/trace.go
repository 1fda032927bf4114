package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
	"unsafe"

	"qmatch"
	"qmatch/internal/core"
	"qmatch/internal/jobs"
	"qmatch/internal/lingo"
	"qmatch/internal/match"
	"qmatch/internal/serve"
	"qmatch/internal/synth"
	"qmatch/internal/xmltree"
)

// layerMetrics are the traced run's per-layer metrics, in report order.
var layerMetrics = []struct{ name, unit string }{
	{"xsd.parse_ms", "ms"}, {"xsd.parse_mb_per_s", "MB/s"},
	{"jsonschema.parse_ms", "ms"}, {"ddl.parse_ms", "ms"},
	{"artifact.compile_ms", "ms"}, {"artifact.encode_ms", "ms"}, {"artifact.decode_ms", "ms"},
	{"lingo.cache_lookups", "count"}, {"lingo.cache_hit_ratio", "ratio"}, {"lingo.cache_evictions", "count"},
	{"core.intern_ms", "ms"}, {"core.fill_ms", "ms"}, {"core.fill_ns_per_cell", "ns"}, {"core.cells", "count"},
	{"core.pairs_ms", "ms"}, {"core.table_mb", "MB"}, {"core.alloc_mb_per_op", "MB"},
	{"core.rematch_ms", "ms"}, {"core.rematch_rescored_ratio", "ratio"},
	{"match.select_ms", "ms"}, {"match.candidates", "count"}, {"match.selected", "count"}, {"match.yield", "ratio"},
	{"qmatch.match_ms", "ms"}, {"qmatch.unattributed_ms", "ms"}, {"qmatch.encode_ms", "ms"}, {"qmatch.report_kb", "KB"},
	{"serve.decode_ms", "ms"}, {"serve.overhead_ms", "ms"}, {"serve.queue_depth_max", "count"},
	{"serve.shed", "count"}, {"serve.engine_builds", "count"},
	{"registry.prefilter_ms", "ms"}, {"registry.rank_ms", "ms"}, {"registry.candidate_ratio", "ratio"},
	{"registry.report_cache_hit_ratio", "ratio"}, {"registry.rematch_copied_ratio", "ratio"}, {"registry.put_ms", "ms"},
	{"jobs.shards", "count"}, {"jobs.attempts_per_shard", "ratio"}, {"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"}, {"jobs.stream_ms", "ms"},
	{"runtime.gc_cycles_per_op", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.heap_peak_mb", "MB"},
	{"obs.trace_overhead_frac", "ratio"}, {"loadgen.late_p99_ms", "ms"},
}

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented for this).
type span struct {
	name, cat  string
	start, dur time.Duration // from the tracer's epoch
	id, parent int           // parent 0 = root
	args       map[string]any
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

type openSpan struct {
	t     *tracer
	s     span
	begin time.Time
}

func (t *tracer) begin(name, cat string, parent int) *openSpan {
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{}) // reserve the id
	t.mu.Unlock()
	return &openSpan{t: t, s: span{name: name, cat: cat, id: id, parent: parent}, begin: time.Now()}
}

// end closes the span and returns its duration in ms.
func (o *openSpan) end() float64 {
	o.s.dur = time.Since(o.begin)
	o.s.start = o.begin.Sub(o.t.epoch)
	o.t.mu.Lock()
	o.t.spans[o.s.id-1] = o.s
	o.t.mu.Unlock()
	return ms(o.s.dur)
}

// add records an already-timed span.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.id = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.id
}

// selfMs is each span name's total self time: its duration minus the part
// its children cover.
func (t *tracer) selfMs() map[string]float64 {
	child := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.parent != 0 {
			child[s.parent] += s.dur
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.name] += ms(s.dur - child[s.id])
	}
	return out
}

// writeEvents writes the spans as Chrome trace events (Perfetto loads
// them). Root spans that overlap go to separate lanes; children share
// their root's lane.
func (t *tracer) writeEvents(path string) error {
	spans := append([]span(nil), t.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	lane := map[int]int{}
	var laneEnd []time.Duration
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		l, ok := lane[s.parent]
		if s.parent == 0 || !ok {
			l = -1
			for i, e := range laneEnd {
				if e <= s.start {
					l = i
					break
				}
			}
			if l < 0 {
				l = len(laneEnd)
				laneEnd = append(laneEnd, 0)
			}
			laneEnd[l] = s.start + s.dur
		}
		lane[s.id] = l
		args := map[string]any{"id": s.id, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, event{Name: s.name, Cat: s.cat, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.dur) / 1e3, Pid: 1, Tid: l + 1, Args: args})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// collector gathers per-layer samples (reported as medians) and values
// computed once.
type collector struct {
	mu      sync.Mutex
	samples map[string][]float64
	values  map[string]float64
}

func newCollector() *collector {
	return &collector{samples: map[string][]float64{}, values: map[string]float64{}}
}

func (c *collector) add(name string, v float64) {
	c.mu.Lock()
	c.samples[name] = append(c.samples[name], v)
	c.mu.Unlock()
}

func (c *collector) set(name string, v float64) { c.values[name] = v }

func (c *collector) has(name string) bool {
	_, ok := c.values[name]
	return ok || len(c.samples[name]) > 0
}

func (c *collector) metrics() (map[string]metric, error) {
	out := map[string]metric{}
	for _, m := range layerMetrics {
		v, ok := c.values[m.name]
		if !ok {
			s := c.samples[m.name]
			if len(s) == 0 {
				return nil, fmt.Errorf("per-layer metric %s not measured", m.name)
			}
			v = median(s)
		}
		out[m.name] = metric{v, m.unit}
	}
	return out, nil
}

// replayer is the traced decomposition of one match: each layer's public
// function called in the order the Engine calls it, wired as the Engine
// wires it (default thesaurus and weights, GOMAXPROCS fill workers, one
// default-bound label-score cache shared by every replayed match), with
// Engine.Match on the same pair as the reference it must reproduce.
type replayer struct {
	tr  *tracer
	col *collector
	eng *qmatch.Engine
	h   *core.Hybrid
	// per pair index: parse and Engine.Match times, for the unattributed
	// and service-overhead readings.
	parseMs, matchMs map[int][]float64
}

func newReplayer(tr *tracer, col *collector) (*replayer, error) {
	eng, err := qmatch.NewEngine()
	if err != nil {
		return nil, err
	}
	th := lingo.NewThesaurus()
	th.Merge(lingo.Default())
	h := core.NewHybrid(th)
	h.Matcher.Scores = lingo.NewScoreCache(0)
	h.Matcher.Parallelism = runtime.GOMAXPROCS(0)
	return &replayer{tr: tr, col: col, eng: eng, h: h, parseMs: map[int][]float64{}, matchMs: map[int][]float64{}}, nil
}

func (rp *replayer) parse(d doc, parent int) (*qmatch.Schema, float64, error) {
	sp := rp.tr.begin(d.Format+".parse", "parse", parent)
	s, err := parseDoc(d)
	t := sp.end()
	if err != nil {
		return nil, 0, err
	}
	rp.col.add(d.Format+".parse_ms", t)
	if d.Format == "xsd" {
		rp.col.add("xsd.bytes", float64(len(d.Data)))
		rp.col.add("xsd.ms", t)
	}
	return s, t, nil
}

func (rp *replayer) artifact(s *qmatch.Schema, parent int) error {
	sp := rp.tr.begin("artifact.compile", "artifact", parent)
	cs, err := qmatch.Compile(s)
	rp.col.add("artifact.compile_ms", sp.end())
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	sp = rp.tr.begin("artifact.encode", "artifact", parent)
	err = cs.Encode(&buf)
	rp.col.add("artifact.encode_ms", sp.end())
	if err != nil {
		return err
	}
	sp = rp.tr.begin("artifact.decode", "artifact", parent)
	back, err := qmatch.DecodeCompiled(&buf)
	rp.col.add("artifact.decode_ms", sp.end())
	if err == nil && back.ID() != cs.ID() {
		err = fmt.Errorf("artifact round trip changed the content id")
	}
	return err
}

// replay decomposes one pair and checks the decomposition's report is
// byte-identical to Engine.Match's.
func (rp *replayer) replay(i int, p pair) error {
	root := rp.tr.begin("replay", "replay", 0)
	root.s.args = map[string]any{"pair": p.name}
	body := mustJSON(serve.MatchRequest{Source: &p.src, Target: &p.tgt})
	sp := rp.tr.begin("serve.decode", "serve", root.s.id)
	var req serve.MatchRequest
	err := json.Unmarshal(body, &req)
	rp.col.add("serve.decode_ms", sp.end())
	if err != nil {
		return err
	}
	src, ps, err := rp.parse(*req.Source, root.s.id)
	if err != nil {
		return err
	}
	tgt, pt, err := rp.parse(*req.Target, root.s.id)
	if err != nil {
		return err
	}
	rp.parseMs[i] = append(rp.parseMs[i], ps+pt)
	for _, s := range []*qmatch.Schema{src, tgt} {
		if err := rp.artifact(s, root.s.id); err != nil {
			return err
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp = rp.tr.begin("core.intern", "core", root.s.id)
	sIn, tIn := core.Intern(src.Tree().Nodes()), core.Intern(tgt.Tree().Nodes())
	intern := sp.end()
	rp.h.Matcher.Interner = func(n *xmltree.Node) *core.Interned {
		switch n {
		case src.Tree():
			return sIn
		case tgt.Tree():
			return tIn
		}
		return nil
	}
	sp = rp.tr.begin("core.fill", "core", root.s.id)
	res := rp.h.Matcher.Tree(src.Tree(), tgt.Tree())
	fill := sp.end()
	sp = rp.tr.begin("core.pairs", "core", root.s.id)
	pairs := res.Pairs()
	pairsMs := sp.end()
	sp = rp.tr.begin("match.select", "match", root.s.id)
	scored := make([]match.ScoredPair, 0, len(pairs))
	candidates := 0
	for _, q := range pairs {
		if rp.h.RequireLabelEvidence && q.QoM.LabelKind == lingo.None {
			continue
		}
		scored = append(scored, match.ScoredPair{Source: q.Source, Target: q.Target, Score: q.QoM.Value})
		if q.QoM.Value >= rp.h.SelectionThreshold {
			candidates++
		}
	}
	sel := match.Select(scored, rp.h.SelectionThreshold)
	out := make([]qmatch.Correspondence, len(sel))
	for k, c := range sel {
		out[k] = qmatch.Correspondence{Source: c.Source, Target: c.Target, Score: c.Score}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Source < out[b].Source
	})
	selMs := sp.end()
	runtime.ReadMemStats(&m1)
	treeQoM := res.Root.Value
	res.Release()
	rp.h.Matcher.Interner = nil

	cells := float64(len(src.Tree().Nodes()) * len(tgt.Tree().Nodes()))
	rp.col.add("core.intern_ms", intern)
	rp.col.add("core.fill_ms", fill)
	rp.col.add("core.fill_ns_per_cell", fill*1e6/cells)
	rp.col.add("core.cells", cells)
	rp.col.add("core.pairs_ms", pairsMs)
	rp.col.add("core.table_mb", cells*float64(unsafe.Sizeof(core.QoM{}))/(1<<20))
	rp.col.add("core.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	rp.col.add("match.select_ms", selMs)
	rp.col.add("match.candidates", float64(candidates))
	rp.col.add("match.selected", float64(len(out)))
	rp.col.add("match.yield", float64(len(out))/cells)

	rep := &qmatch.Report{Algorithm: rp.h.Name(), Correspondences: out, TreeQoM: treeQoM}
	var buf bytes.Buffer
	sp = rp.tr.begin("qmatch.encode", "qmatch", root.s.id)
	err = rep.WriteJSON(&buf)
	rp.col.add("qmatch.encode_ms", sp.end())
	if err != nil {
		return err
	}
	rp.col.add("qmatch.report_kb", float64(buf.Len())/1024)
	root.end()

	sp = rp.tr.begin("qmatch.match", "qmatch", 0)
	want := rp.eng.Match(src, tgt)
	matchMs := sp.end()
	rp.col.add("qmatch.match_ms", matchMs)
	rp.col.add("qmatch.unattributed_ms", matchMs-(intern+fill+pairsMs+selMs))
	rp.matchMs[i] = append(rp.matchMs[i], matchMs)
	if !bytes.Equal(buf.Bytes(), reportJSON(want)) {
		return fmt.Errorf("%w: traced decomposition of %s differs from Engine.Match", errWrongOutput, p.name)
	}
	return nil
}

// evolve renames a few percent of a document's elements, as a schema
// revision re-PUT to the registry would.
func evolve(d doc, seed int64) (doc, error) {
	s, err := parseDoc(d)
	if err != nil {
		return doc{}, err
	}
	v, _ := synth.Derive(s.Tree(), synth.MutationConfig{Seed: seed, RenameProb: 0.05})
	return xsdDoc(v), nil
}

// rematchReplay times Engine.Rematch refreshing src→tgt after tgt evolves,
// and checks the refreshed report equals a from-scratch match.
func (rp *replayer) rematchReplay(src, tgt, evolved doc) error {
	eng, err := qmatch.NewEngine(qmatch.WithRematchState())
	if err != nil {
		return err
	}
	var cs [3]*qmatch.CompiledSchema
	for k, d := range []doc{src, tgt, evolved} {
		s, err := parseDoc(d)
		if err != nil {
			return err
		}
		if cs[k], err = eng.Compile(s); err != nil {
			return err
		}
	}
	prev := eng.MatchCompiled(cs[0], cs[1])
	sp := rp.tr.begin("core.rematch", "core", 0)
	rep, err := eng.Rematch(prev, cs[1], cs[2])
	rp.col.add("core.rematch_ms", sp.end())
	if err != nil {
		return err
	}
	rep.Rematch = nil
	if !bytes.Equal(reportJSON(rep), reportJSON(oracle.MatchCompiled(cs[0], cs[2]))) {
		return fmt.Errorf("%w: Engine.Rematch differs from a from-scratch match", errWrongOutput)
	}
	return nil
}

// probeRegistry runs the registry layer over a workload's first pair on
// workloads whose traffic does not reach it: PUT both schemas, match them
// (miss, then hit), search with the source as query, re-PUT an evolved
// target (which rematches the cached report) and match again.
func probeRegistry(s *server, p pair, evolved doc) ([]record, error) {
	docs := []doc{p.src, p.tgt, evolved}
	var cs [3]*qmatch.CompiledSchema
	for k, d := range docs {
		sc, err := parseDoc(d)
		if err != nil {
			return nil, err
		}
		if cs[k], err = oracle.Compile(sc); err != nil {
			return nil, err
		}
	}
	ri := &registryInputs{
		docs:      map[string][]doc{"probe-a": {p.src}, "probe-b": {p.tgt, evolved}},
		wantPair:  map[string][][]byte{"probe-a/probe-b": {reportJSON(oracle.MatchCompiled(cs[0], cs[1])), reportJSON(oracle.MatchCompiled(cs[0], cs[2]))}},
		wantTop:   map[int]string{0: "probe-a"},
		queries:   []doc{p.src},
		size:      map[string]int{"probe-a": cs[0].Size(), "probe-b": cs[1].Size()},
		querySize: []int64{int64(cs[0].Size())},
	}
	in := &inputs{reg: ri}
	putA, putB := putRequest("probe-a", 0, p.src), putRequest("probe-b", 0, p.tgt)
	putA.create, putB.create = true, true
	cells := cs[0].Size() * cs[1].Size()
	m0, m1 := regMatchRequest("probe-a", "probe-b", cells), regMatchRequest("probe-a", "probe-b", cells)
	m1.version = 1
	search := &request{kind: "search", method: "POST", path: "/v1/search", pair: -1,
		body: mustJSON(serve.SearchRequest{Query: &p.src, K: 1})}
	ops := []*request{putA, putB, m0, m0, search, putRequest("probe-b", 1, evolved), m1}
	var recs []record
	for _, r := range ops {
		at := time.Now()
		res := s.exec(in, r)
		if res.err != nil {
			return nil, fmt.Errorf("registry probe: %w", res.err)
		}
		recs = append(recs, record{req: r, res: res, lat: res.lat, at: at})
	}
	return recs, nil
}

// probeJob runs a 1×1 job of a workload's first pair on workloads whose
// traffic does not reach the job layer.
func probeJob(s *server, p pair) (record, error) {
	var cs [2]*qmatch.CompiledSchema
	for k, d := range []doc{p.src, p.tgt} {
		sc, err := parseDoc(d)
		if err != nil {
			return record{}, err
		}
		if cs[k], err = oracle.Compile(sc); err != nil {
			return record{}, err
		}
	}
	in := &inputs{gridWant: [][][]byte{{mustJSON(oracle.MatchCompiled(cs[0], cs[1]))}}}
	r := &request{kind: "job", method: "POST", path: "/v1/jobs", pair: -1, cells: int64(cs[0].Size() * cs[1].Size()),
		body: mustJSON(serve.JobSubmitRequest{Sources: []serve.JobSchemaRef{{Schema: &p.src}},
			Targets: []serve.JobSchemaRef{{Schema: &p.tgt}}})}
	at := time.Now()
	res := s.exec(in, r)
	if res.err != nil {
		return record{}, fmt.Errorf("job probe: %w", res.err)
	}
	return record{req: r, res: res, lat: res.lat, at: at}, nil
}

// jobProgress fetches a finished job's shard detail.
func (s *server) jobProgress(id string) (jobs.Progress, error) {
	var p jobs.Progress
	st, _, b, err := s.do("GET", "/v1/jobs/"+id+"?shards=1", nil)
	if err != nil {
		return p, err
	}
	if st != http.StatusOK {
		return p, fmt.Errorf("job status: %d", st)
	}
	err = json.Unmarshal(b, &p)
	return p, err
}

// observeRecords turns client records into spans and the service-side
// per-layer readings their responses carry.
func observeRecords(s *server, tr *tracer, col *collector, recs []record, agg *serviceAgg) error {
	for _, r := range recs {
		id := tr.add(span{name: "http." + r.req.kind, cat: "client", start: r.at.Sub(tr.epoch), dur: r.res.lat})
		if r.res.err != nil {
			continue // counted as failed; it carries no layer readings
		}
		switch r.req.kind {
		case "search":
			st := r.res.info.search
			col.add("registry.prefilter_ms", float64(st.PrefilterNs)/1e6)
			col.add("registry.rank_ms", float64(st.RankNs)/1e6)
			agg.candidates += st.Candidates
			agg.corpus += st.Corpus
			col.add("search.overhead_ms", ms(r.res.lat)-float64(st.PrefilterNs+st.RankNs)/1e6)
		case "regmatch":
			agg.regMatches++
			if *r.res.info.cacheHit {
				agg.regHits++
			}
		case "put":
			if r.req.create {
				continue
			}
			col.add("registry.put_ms", ms(r.res.lat))
			for _, rs := range r.res.info.rematched {
				agg.copied += rs.Rematch.CopiedCells
				agg.rescored += rs.Rematch.RescoredCells
			}
		case "job":
			p, err := s.jobProgress(r.res.info.jobID)
			if err != nil {
				return err
			}
			if p.Started == nil || p.Finished == nil || len(p.Shards) == 0 {
				return fmt.Errorf("job %s: progress without timestamps or shards", p.ID)
			}
			attempts := 0
			for _, sh := range p.Shards {
				attempts += sh.Attempts
			}
			col.add("jobs.shards", float64(len(p.Shards)))
			col.add("jobs.attempts_per_shard", float64(attempts)/float64(len(p.Shards)))
			col.add("jobs.queue_wait_ms", ms(p.Started.Sub(p.Created)))
			col.add("jobs.run_ms", ms(p.Finished.Sub(*p.Started)))
			col.add("jobs.stream_ms", ms(r.res.info.trailerAt.Sub(*p.Finished)))
			col.add("job.overhead_ms", ms(r.res.lat-p.Finished.Sub(p.Created)))
			for _, c := range []struct {
				name     string
				from, to time.Time
			}{{"jobs.queue", p.Created, *p.Started}, {"jobs.run", *p.Started, *p.Finished}, {"jobs.stream", *p.Finished, r.res.info.trailerAt}} {
				tr.add(span{name: c.name, cat: "jobs", start: c.from.Sub(tr.epoch), dur: c.to.Sub(c.from), parent: id})
			}
		}
	}
	return nil
}

type serviceAgg struct {
	candidates, corpus  int
	regMatches, regHits int
	copied, rescored    int64
}

func (a *serviceAgg) finish(col *collector) {
	if a.corpus > 0 {
		col.set("registry.candidate_ratio", float64(a.candidates)/float64(a.corpus))
	}
	if a.regMatches > 0 {
		col.set("registry.report_cache_hit_ratio", float64(a.regHits)/float64(a.regMatches))
	}
	if total := a.copied + a.rescored; total > 0 {
		col.set("registry.rematch_copied_ratio", float64(a.copied)/float64(total))
		col.set("core.rematch_rescored_ratio", float64(a.rescored)/float64(total))
	}
}

// traced is the per-layer run. After set-up it measures the stream
// untraced (U), then traced with /metrics and runtime sampling (T), then
// replays the workload's pairs through each layer (L); layers the
// workload's traffic does not reach are probed with its first pair.
func traced(o options, in *inputs, d time.Duration, row map[string]any) (outcome, error) {
	s, sd, err := setup(in)
	if err != nil {
		return outcome{}, err
	}
	defer s.close()
	row["setup_s"] = sd.Seconds()
	tr := &tracer{epoch: time.Now()}
	col := newCollector()
	next := 0
	phU := measure(s, in, &next, d*3/10)

	m0, err := s.metrics()
	if err != nil {
		return outcome{}, err
	}
	var g0, g1 runtime.MemStats
	runtime.ReadMemStats(&g0)
	var queueMax, heapMax float64
	stop, sampled := make(chan struct{}), make(chan error, 1)
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var mem runtime.MemStats
		for {
			select {
			case <-stop:
				sampled <- nil
				return
			case <-tick.C:
			}
			m, err := s.metrics()
			if err != nil {
				sampled <- err
				return
			}
			runtime.ReadMemStats(&mem)
			queueMax = max(queueMax, m[serve.MetricQueueDepth])
			heapMax = max(heapMax, float64(mem.HeapAlloc)/(1<<20))
		}
	}()
	phT := measure(s, in, &next, d*3/10)
	close(stop)
	if err := <-sampled; err != nil {
		return outcome{}, err
	}
	runtime.ReadMemStats(&g1)
	m1, err := s.metrics()
	if err != nil {
		return outcome{}, err
	}
	ops := float64(len(phT.recs))
	lookups := m1[qmatch.MetricCacheHits] + m1[qmatch.MetricCacheMisses] - m0[qmatch.MetricCacheHits] - m0[qmatch.MetricCacheMisses]
	col.set("lingo.cache_lookups", lookups/ops)
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = (m1[qmatch.MetricCacheHits] - m0[qmatch.MetricCacheHits]) / lookups
	}
	col.set("lingo.cache_hit_ratio", hitRatio)
	col.set("lingo.cache_evictions", (m1[qmatch.MetricCacheEvictions]-m0[qmatch.MetricCacheEvictions])/ops)
	col.set("serve.queue_depth_max", queueMax)
	col.set("serve.shed", m1[serve.MetricShed]-m0[serve.MetricShed])
	col.set("serve.engine_builds", m1[serve.MetricEngineBuilds]-m0[serve.MetricEngineBuilds])
	col.set("runtime.gc_cycles_per_op", float64(g1.NumGC-g0.NumGC)/ops)
	col.set("runtime.gc_pause_ms", float64(g1.PauseTotalNs-g0.PauseTotalNs)/1e6/ops)
	col.set("runtime.heap_peak_mb", max(heapMax, float64(g1.HeapAlloc)/(1<<20)))
	latU, latT := phU.latenciesMs(), phT.latenciesMs()
	if len(latU) > 0 && len(latT) > 0 {
		col.set("obs.trace_overhead_frac", median(latT)/median(latU)-1)
	}
	var late []float64
	for _, r := range phU.recs {
		late = append(late, ms(r.late))
	}
	col.set("loadgen.late_p99_ms", percentile(late, 0.99))
	agg := &serviceAgg{}
	if err := observeRecords(s, tr, col, phT.recs, agg); err != nil {
		return outcome{}, err
	}

	rp, err := newReplayer(tr, col)
	if err != nil {
		return outcome{}, err
	}
	deadline := time.Now().Add(d * 4 / 10)
	replays := 0
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		replays++
		k := i % len(in.pairs)
		if err := rp.replay(k, in.pairs[k]); err != nil {
			return outcome{checkErr: err}, nil
		}
	}
	if col.has("xsd.ms") {
		col.set("xsd.parse_mb_per_s", sum(col.samples["xsd.bytes"])/(1<<20)/(sum(col.samples["xsd.ms"])/1e3))
	}
	// Service overhead: client latency minus the work the replay or the
	// response accounts for.
	for _, r := range phT.recs {
		if r.req.kind == "match" && r.res.err == nil && len(rp.matchMs[r.req.pair]) > 0 {
			col.add("serve.overhead_ms", ms(r.res.lat)-median(rp.parseMs[r.req.pair])-median(rp.matchMs[r.req.pair]))
		}
	}
	for _, alt := range []string{"search.overhead_ms", "job.overhead_ms"} {
		if !col.has("serve.overhead_ms") {
			for _, v := range col.samples[alt] {
				col.add("serve.overhead_ms", v)
			}
		}
	}

	// Probes for the layers this workload's traffic does not reach.
	first := in.pairs[0]
	evolved, err := evolve(first.tgt, o.seed)
	if err != nil {
		return outcome{}, err
	}
	if err := rp.rematchReplay(first.src, first.tgt, evolved); err != nil {
		return outcome{checkErr: err}, nil
	}
	probed := []string{}
	if !col.has("jsonschema.parse_ms") || !col.has("ddl.parse_ms") {
		probed = append(probed, "jsonschema", "ddl")
		for _, name := range []string{"registry_put_po_jsonschema.json", "registry_put_po_ddl.json"} {
			dd, err := loadPUTDoc(o.root, name)
			if err != nil {
				return outcome{}, err
			}
			for k := 0; k < 20; k++ {
				if _, _, err := rp.parse(dd, 0); err != nil {
					return outcome{}, err
				}
			}
		}
	}
	if !col.has("registry.put_ms") {
		probed = append(probed, "registry")
		recs, err := probeRegistry(s, first, evolved)
		if err != nil {
			return outcome{checkErr: err}, nil
		}
		if err := observeRecords(s, tr, col, recs, agg); err != nil {
			return outcome{}, err
		}
	}
	if !col.has("jobs.run_ms") {
		probed = append(probed, "jobs")
		rec, err := probeJob(s, first)
		if err != nil {
			return outcome{checkErr: err}, nil
		}
		if err := observeRecords(s, tr, col, []record{rec}, agg); err != nil {
			return outcome{}, err
		}
	}
	agg.finish(col)
	metrics, err := col.metrics()
	if err != nil {
		return outcome{}, err
	}
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	if err := tr.writeEvents(path); err != nil {
		return outcome{}, err
	}
	row["trace_file"] = path
	row["probed_layers"] = probed
	row["self_ms"] = tr.selfMs()
	row["samples"] = map[string]int{"untraced": len(latU), "traced": len(latT), "replays": replays}
	recs := append(phU.recs, phT.recs...)
	failed := phU.failed() + phT.failed()
	return outcome{metrics, len(recs), failed, firstErr(phase{recs: recs})}, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
