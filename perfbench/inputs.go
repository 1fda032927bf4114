package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"qmatch"
	"qmatch/internal/dataset"
	"qmatch/internal/serve"
	"qmatch/internal/synth"
	"qmatch/internal/xmltree"
	"qmatch/internal/xsd"
)

// doc is one schema document as the service receives it.
type doc = serve.SchemaInput

// pair is one schema pair of a workload: the documents, the pair-table
// size, and the library's answer computed in set-up.
type pair struct {
	name     string
	src, tgt doc
	cells    int64
	want     []byte // Report.WriteJSON of the library answer; nil for pairs only the traced run replays
}

// request is one client operation of a workload's stream.
type request struct {
	kind   string // match | search | regmatch | put | job
	method string
	path   string
	body   []byte
	cells  int64 // pair-table cells the operation computes
	pair   int   // index into inputs.pairs; -1 when the op has none
	// id is the schema a PUT installs, or "a/b" for a registry match.
	id string
	// version is, for a PUT, the version it installs; for a registry
	// match, the version of the pair's evolving schema it must see; for a
	// search, the query index; for a job, the grid index.
	version int
	create  bool // a first PUT (201), not a re-PUT
}

// inputs is everything one workload sends, generated from its seed.
type inputs struct {
	pairs    []pair     // replay set of the traced run
	setup    []*request // registrations, not timed as requests
	warm     []*request // warm-up, part of setup_s
	stream   []*request // the measured stream (closed loops cycle it)
	arrivals []time.Duration
	// registry-search: expected answers and version state.
	reg *registryInputs
	// job-grid: per grid, per cell, json.Marshal of the library answer.
	gridWant [][][]byte
}

type registryInputs struct {
	docs     map[string][]doc    // id → versions (v0 = registered)
	wantPair map[string][][]byte // "a/b" → per version of its evolving side
	wantTop  map[int]string      // query index → expected top-1 id
	queries  []doc
	// Node counts, to count the cells a search ranks.
	size      map[string]int
	querySize []int64
}

const (
	mixRate     = 140.0 // serve-mix arrivals per second: a quarter of what the mix saturates at (~560/s) on a calm 2-CPU Xeon
	regCorpus   = 200
	regPairs    = 24
	regEvolving = 4
	regSources  = 12
	// One query per search of the stream: 48 cycles of seven searches, so
	// each evolving schema is re-PUT an even number of times and the
	// stream wraps to the registered versions.
	regCycle      = "SMSSSPSSMS"
	regQueries    = 48 * 7
	regK          = 10
	gridN         = 4
	gridCount     = 3
	gridElements  = 300
	mixSynthPairs = 120
)

// generate builds a workload's inputs from its seed. root is the checkout
// holding testdata/ (serve-mix sends the checked-in PO JSON Schema and
// DDL documents); horizon bounds how much of an open-loop schedule is
// generated.
func generate(workload string, seed int64, root string, horizon time.Duration) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case "protein-match":
		return proteinInputs(rng)
	case "serve-mix":
		return mixInputs(rng, root, horizon)
	case "registry-search":
		return registryInputsFor(rng)
	case "job-grid":
		return gridInputsFor(rng)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

func xsdDoc(n *xmltree.Node) doc { return doc{Format: "xsd", Data: xsd.Render(n)} }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// oracle is the library Engine whose answers the service must reproduce.
var oracle = func() *qmatch.Engine {
	e, err := qmatch.NewEngine()
	if err != nil {
		panic(err)
	}
	return e
}()

// parseDoc parses a document the way qmatchd's SchemaInput does for the
// formats the workloads send.
func parseDoc(d doc) (*qmatch.Schema, error) {
	switch d.Format {
	case "xsd":
		return qmatch.ParseSchemaString(d.Data)
	case "jsonschema":
		return qmatch.ParseJSONSchemaString(d.Data)
	case "ddl":
		return qmatch.ParseDDLString(d.Data, d.Root)
	}
	return nil, fmt.Errorf("unsupported format %q", d.Format)
}

func reportJSON(r *qmatch.Report) []byte {
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// newPair parses both documents and computes the library answer.
func newPair(name string, src, tgt doc) (pair, error) {
	s, err := parseDoc(src)
	if err != nil {
		return pair{}, fmt.Errorf("%s source: %w", name, err)
	}
	t, err := parseDoc(tgt)
	if err != nil {
		return pair{}, fmt.Errorf("%s target: %w", name, err)
	}
	return pair{name: name, src: src, tgt: tgt, cells: int64(s.Size()) * int64(t.Size()),
		want: reportJSON(oracle.Match(s, t))}, nil
}

func matchRequest(pairs []pair, i int) *request {
	p := pairs[i]
	return &request{kind: "match", method: "POST", path: "/v1/match", pair: i, cells: p.cells,
		body: mustJSON(serve.MatchRequest{Source: &p.src, Target: &p.tgt})}
}

// proteinInputs is PIR → PDB. The seed shuffles PDB's top-level
// categories, which changes the bytes and the Order axis but not the
// table size.
func proteinInputs(rng *rand.Rand) (*inputs, error) {
	pdb := dataset.PDB()
	rng.Shuffle(len(pdb.Children), func(i, j int) {
		pdb.Children[i], pdb.Children[j] = pdb.Children[j], pdb.Children[i]
	})
	p, err := newPair("protein", xsdDoc(dataset.PIR()), xsdDoc(pdb))
	if err != nil {
		return nil, err
	}
	in := &inputs{pairs: []pair{p}}
	in.warm = []*request{matchRequest(in.pairs, 0)}
	in.stream = []*request{matchRequest(in.pairs, 0)}
	return in, nil
}

// loadPUTDoc reads the schema document of a checked-in PUT request body.
func loadPUTDoc(root, name string) (doc, error) {
	b, err := os.ReadFile(filepath.Join(root, "testdata", name))
	if err != nil {
		return doc{}, err
	}
	var req serve.PutSchemaRequest
	if err := json.Unmarshal(b, &req); err != nil || req.Schema == nil {
		return doc{}, fmt.Errorf("%s: not a schema PUT body: %v", name, err)
	}
	return *req.Schema, nil
}

// mixInputs is the open-loop pool: the paper's small corpus pairs as XSD,
// the checked-in PO JSON Schema and DDL documents against XSD, and seeded
// synthetic pairs of 40–150 elements. Warm-up sends the fixed pairs and
// half the synthetic ones, so the rest bring new vocabulary.
func mixInputs(rng *rand.Rand, root string, horizon time.Duration) (*inputs, error) {
	poJSON, err := loadPUTDoc(root, "registry_put_po_jsonschema.json")
	if err != nil {
		return nil, err
	}
	poDDL, err := loadPUTDoc(root, "registry_put_po_ddl.json")
	if err != nil {
		return nil, err
	}
	var specs []struct {
		name     string
		src, tgt doc
	}
	add := func(name string, s, t doc) {
		specs = append(specs, struct {
			name     string
			src, tgt doc
		}{name, s, t})
	}
	for _, p := range []dataset.Pair{dataset.POPair(), dataset.BookPair(), dataset.DCMDPair(),
		dataset.XBenchPair(), dataset.LibraryHumanPair()} {
		add(p.Name, xsdDoc(p.Source), xsdDoc(p.Target))
	}
	add("PO-jsonschema", poJSON, xsdDoc(dataset.PO2()))
	add("PO-ddl", poDDL, xsdDoc(dataset.PO1()))
	add("jsonschema-ddl", poJSON, poDDL)
	fixed := len(specs)
	for i, n := range spread(rng, mixSynthPairs, 40, 150) {
		// n is the pair's total element count (Figure 4's x-axis); the
		// derived side loses a few leaves.
		s := synth.Generate(synth.Config{Seed: rng.Int63(), Elements: n / 2})
		v, _ := synth.Derive(s, synth.Uniform(rng.Int63(), 0.2))
		add(fmt.Sprintf("synth%02d", i), xsdDoc(s), xsdDoc(v))
	}
	in := &inputs{}
	for _, sp := range specs {
		p, err := newPair(sp.name, sp.src, sp.tgt)
		if err != nil {
			return nil, err
		}
		in.pairs = append(in.pairs, p)
	}
	reqs := make([]*request, len(in.pairs))
	for i := range reqs {
		reqs[i] = matchRequest(in.pairs, i)
	}
	in.warm = reqs[:fixed+mixSynthPairs/2]
	// Poisson arrivals; they walk the pool in seeded permutations, so every
	// pair is sent equally often.
	var t time.Duration
	var order []int
	for {
		t += time.Duration(rng.ExpFloat64() / mixRate * float64(time.Second))
		if t >= horizon {
			break
		}
		if len(order) == 0 {
			order = rng.Perm(len(reqs))
		}
		in.arrivals = append(in.arrivals, t)
		in.stream = append(in.stream, reqs[order[0]])
		order = order[1:]
	}
	return in, nil
}

// registryInputsFor registers a seeded corpus, then mixes top-K searches
// with mutated queries, registry matches over a fixed pair set, and
// re-PUTs that flip a few schemas between two versions.
func registryInputsFor(rng *rand.Rand) (*inputs, error) {
	ri := &registryInputs{docs: map[string][]doc{}, wantPair: map[string][][]byte{},
		wantTop: map[int]string{}, size: map[string]int{}}
	in := &inputs{reg: ri}
	ids := make([]string, regCorpus)
	trees := make([]*xmltree.Node, regCorpus)
	sizes := spread(rng, regCorpus, 40, 320)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%03d", i)
		trees[i] = synth.Generate(synth.Config{Seed: rng.Int63(), Elements: sizes[i], MaxDepth: 5})
		ri.docs[ids[i]] = []doc{xsdDoc(trees[i])}
		ri.size[ids[i]] = trees[i].Size()
		r := putRequest(ids[i], 0, ri.docs[ids[i]][0])
		r.create = true
		in.setup = append(in.setup, r)
	}
	for i := 0; i < regEvolving; i++ {
		v, _ := synth.Derive(trees[i], synth.MutationConfig{Seed: rng.Int63(), RenameProb: 0.05})
		ri.docs[ids[i]] = append(ri.docs[ids[i]], xsdDoc(v))
	}
	compiled := map[string][]*qmatch.CompiledSchema{}
	compile := func(id string) ([]*qmatch.CompiledSchema, error) {
		if cs, ok := compiled[id]; ok {
			return cs, nil
		}
		var out []*qmatch.CompiledSchema
		for _, d := range ri.docs[id] {
			s, err := parseDoc(d)
			if err != nil {
				return nil, err
			}
			cs, err := oracle.Compile(s)
			if err != nil {
				return nil, err
			}
			out = append(out, cs)
		}
		compiled[id] = out
		return out, nil
	}
	// The pair set matches the first regSources schemas (the evolving ones
	// among them) against the next regPairs.
	var pairs [][2]string
	for k := 0; k < regPairs; k++ {
		a, b := ids[k%regSources], ids[regSources+k]
		key := a + "/" + b
		pairs = append(pairs, [2]string{a, b})
		ca, err := compile(a)
		if err != nil {
			return nil, err
		}
		cb, err := compile(b)
		if err != nil {
			return nil, err
		}
		for _, va := range ca {
			ri.wantPair[key] = append(ri.wantPair[key], reportJSON(oracle.MatchCompiled(va, cb[0])))
		}
		in.warm = append(in.warm, regMatchRequest(a, b, ca[0].Size()*cb[0].Size()))
		in.pairs = append(in.pairs, pair{name: key, src: ri.docs[a][0], tgt: ri.docs[b][0],
			cells: int64(ca[0].Size()) * int64(cb[0].Size())})
	}
	// Every search sends a new query, derived from a mid-size schema
	// (140–220 elements) that no pair or re-PUT touches, so search costs
	// stay comparable across seeds. The schemas are walked in seeded
	// permutations, so each is queried about equally often and no query is
	// ever warm. The last query is the warm-up's.
	stable := make([]int, 0, regCorpus)
	for i := regSources + regPairs; i < regCorpus; i++ {
		if sizes[i] >= 140 && sizes[i] <= 220 {
			stable = append(stable, i)
		}
	}
	var order []int
	for q := 0; q <= regQueries; q++ {
		if len(order) == 0 {
			order = rng.Perm(len(stable))
		}
		i := stable[order[0]]
		order = order[1:]
		v, _ := synth.Derive(trees[i], synth.Uniform(rng.Int63(), 0.1))
		ri.queries = append(ri.queries, xsdDoc(v))
		ri.wantTop[q] = ids[i]
		ri.querySize = append(ri.querySize, int64(v.Size()))
		in.pairs = append(in.pairs, pair{name: fmt.Sprintf("query%03d", q), src: ri.queries[q],
			tgt: ri.docs[ids[i]][0], cells: int64(v.Size()) * int64(trees[i].Size())})
	}
	in.warm = append(in.warm, searchRequest(ri, regQueries))
	// The stream: cycles of seven searches, two registry matches and one
	// re-PUT in a fixed order, so every seed interleaves heavy and light
	// operations alike and both latency percentiles fall among the
	// searches; each re-PUT flips one evolving schema.
	version := map[string]int{}
	var nq, np int
	for c := 0; c < regQueries/7; c++ {
		for _, k := range []byte(regCycle) {
			switch k {
			case 'S':
				in.stream = append(in.stream, searchRequest(ri, nq))
				nq++
			case 'M':
				ab := pairs[rng.Intn(len(pairs))]
				r := regMatchRequest(ab[0], ab[1], ri.size[ab[0]]*ri.size[ab[1]])
				r.version = version[ab[0]]
				in.stream = append(in.stream, r)
			case 'P':
				id := ids[np%regEvolving]
				version[id] = 1 - version[id]
				in.stream = append(in.stream, putRequest(id, version[id], ri.docs[id][version[id]]))
				np++
			}
		}
	}
	return in, nil
}

// spread returns n sizes evenly spaced over [lo, hi] in seeded order, so
// every seed draws the same size distribution.
func spread(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i*(hi-lo)/(n-1)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func putRequest(id string, version int, d doc) *request {
	return &request{kind: "put", method: "PUT", path: "/v1/schemas/" + id, id: id, version: version, pair: -1,
		body: mustJSON(serve.PutSchemaRequest{Schema: &d})}
}

func regMatchRequest(a, b string, cells int) *request {
	return &request{kind: "regmatch", method: "POST", path: "/v1/schemas/" + a + "/match/" + b,
		id: a + "/" + b, pair: -1, cells: int64(cells)}
}

func searchRequest(ri *registryInputs, q int) *request {
	return &request{kind: "search", method: "POST", path: "/v1/search", pair: -1, version: q,
		body: mustJSON(serve.SearchRequest{Query: &ri.queries[q], K: regK})}
}

// gridInputsFor is gridCount different gridN×gridN jobs of seeded
// gridElements-element schemas, submitted inline in turn.
func gridInputsFor(rng *rand.Rand) (*inputs, error) {
	in := &inputs{}
	for k := 0; k < gridCount; k++ {
		var docs [2][]doc
		var compiled [2][]*qmatch.CompiledSchema
		for side := range docs {
			for i := 0; i < gridN; i++ {
				d := xsdDoc(synth.Generate(synth.Config{Seed: rng.Int63(), Elements: gridElements}))
				s, err := parseDoc(d)
				if err != nil {
					return nil, err
				}
				cs, err := oracle.Compile(s)
				if err != nil {
					return nil, err
				}
				docs[side], compiled[side] = append(docs[side], d), append(compiled[side], cs)
			}
		}
		var cells int64
		var want [][]byte
		var req serve.JobSubmitRequest
		for i := 0; i < gridN; i++ {
			req.Sources = append(req.Sources, serve.JobSchemaRef{Schema: &docs[0][i]})
			req.Targets = append(req.Targets, serve.JobSchemaRef{Schema: &docs[1][i]})
			for j := 0; j < gridN; j++ {
				want = append(want, mustJSON(oracle.MatchCompiled(compiled[0][i], compiled[1][j])))
				c := int64(compiled[0][i].Size()) * int64(compiled[1][j].Size())
				cells += c
				in.pairs = append(in.pairs, pair{name: fmt.Sprintf("grid%d-cell%d", k, i*gridN+j),
					src: docs[0][i], tgt: docs[1][j], cells: c})
			}
		}
		in.gridWant = append(in.gridWant, want)
		in.stream = append(in.stream, &request{kind: "job", method: "POST", path: "/v1/jobs", pair: -1,
			cells: cells, version: k, body: mustJSON(req)})
	}
	in.warm = in.stream[:1]
	return in, nil
}
