package qmatch_test

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qmatch"
	"qmatch/internal/dataset"
)

// enginePairs returns the small corpus pairs (everything but the protein
// workload) as façade schemas — the mixed workload of the concurrency
// tests.
func enginePairs() [][2]*qmatch.Schema {
	out := [][2]*qmatch.Schema{}
	for _, p := range []dataset.Pair{
		dataset.POPair(), dataset.BookPair(), dataset.DCMDPair(),
		dataset.XBenchPair(), dataset.LibraryHumanPair(),
	} {
		out = append(out, [2]*qmatch.Schema{qmatch.FromTree(p.Source), qmatch.FromTree(p.Target)})
	}
	return out
}

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]qmatch.Algorithm{
		"hybrid":     qmatch.Hybrid,
		"Linguistic": qmatch.Linguistic,
		"STRUCTURAL": qmatch.Structural,
		" cupid ":    qmatch.Cupid,
	}
	for in, want := range cases {
		got, err := qmatch.ParseAlgorithm(in)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "bogus", "hybridd"} {
		if _, err := qmatch.ParseAlgorithm(bad); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "hybrid") {
			t.Errorf("ParseAlgorithm(%q) error %q does not list valid names", bad, err)
		}
	}
}

func TestNewEngineErrors(t *testing.T) {
	cases := map[string][]qmatch.Option{
		"unknown algorithm":   {qmatch.WithAlgorithm(qmatch.Algorithm("bogus"))},
		"all-zero weights":    {qmatch.WithWeights(qmatch.Weights{})},
		"negative weight":     {qmatch.WithWeights(qmatch.Weights{Label: -1, Children: 2})},
		"negative parallel":   {qmatch.WithParallelism(-2)},
		"child thresh > 1":    {qmatch.WithChildThreshold(1.5)},
		"selection thresh <0": {qmatch.WithSelectionThreshold(-0.1)},
	}
	for name, opts := range cases {
		if _, err := qmatch.NewEngine(opts...); err == nil {
			t.Errorf("%s: NewEngine accepted invalid options", name)
		}
	}
	eng, err := qmatch.NewEngine(
		qmatch.WithAlgorithm(qmatch.Hybrid),
		qmatch.WithWeights(qmatch.Weights{Label: 0.3, Properties: 0.2, Level: 0.1, Children: 0.4}),
		qmatch.WithParallelism(3),
	)
	if err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if eng.Algorithm() != qmatch.Hybrid || eng.Parallelism() != 3 {
		t.Fatalf("accessors = %v/%d", eng.Algorithm(), eng.Parallelism())
	}
	// Parallelism 0 resolves to a machine-derived positive default.
	def, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if def.Parallelism() < 1 {
		t.Fatalf("default parallelism = %d", def.Parallelism())
	}
}

func TestMatchPanicsOnInvalidOptions(t *testing.T) {
	src, tgt := poPairXSD(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Match with all-zero weights did not panic")
		}
	}()
	qmatch.Match(src, tgt, qmatch.WithWeights(qmatch.Weights{}))
}

func TestEngineMatchEqualsPackageMatch(t *testing.T) {
	src, tgt := poPairXSD(t)
	for _, a := range []qmatch.Algorithm{qmatch.Hybrid, qmatch.Linguistic, qmatch.Structural, qmatch.Cupid} {
		eng, err := qmatch.NewEngine(qmatch.WithAlgorithm(a))
		if err != nil {
			t.Fatal(err)
		}
		got := eng.Match(src, tgt)
		want := qmatch.Match(src, tgt, qmatch.WithAlgorithm(a))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: engine report differs from package-level report", a)
		}
	}
}

// TestEngineSharedConcurrent drives one shared Engine from many goroutines
// over a mixed workload and asserts every report is bit-identical to the
// sequential baseline. Run under -race this is the engine's thread-safety
// proof.
func TestEngineSharedConcurrent(t *testing.T) {
	eng, err := qmatch.NewEngine(qmatch.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	pairs := enginePairs()
	want := make([]*qmatch.Report, len(pairs))
	wantQoM := make([]qmatch.QoMBreakdown, len(pairs))
	for i, p := range pairs {
		want[i] = eng.Match(p[0], p[1])
		wantQoM[i] = eng.QoM(p[0], p[1])
	}

	const goroutines = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 2*len(pairs); k++ {
				i := (g + k) % len(pairs)
				p := pairs[i]
				if got := eng.Match(p[0], p[1]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d pair %d: concurrent report differs", g, i)
					return
				}
				if g%3 == 0 {
					if q := eng.QoM(p[0], p[1]); q != wantQoM[i] {
						t.Errorf("goroutine %d pair %d: concurrent QoM differs", g, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestMatchAllEqualsSequentialMatch(t *testing.T) {
	eng, err := qmatch.NewEngine(qmatch.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	pairs := enginePairs()
	var sources, targets []*qmatch.Schema
	for _, p := range pairs[:3] {
		sources = append(sources, p[0])
		targets = append(targets, p[1])
	}
	targets = append(targets, pairs[3][1]) // non-square grid

	got, err := eng.MatchAll(context.Background(), sources, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sources) {
		t.Fatalf("rows = %d", len(got))
	}
	for i, s := range sources {
		if len(got[i]) != len(targets) {
			t.Fatalf("row %d cols = %d", i, len(got[i]))
		}
		for j, tg := range targets {
			want := eng.Match(s, tg)
			if !reflect.DeepEqual(got[i][j], want) {
				t.Errorf("cell (%d,%d) differs from sequential Match", i, j)
			}
		}
	}
}

// One long-lived Engine shared by concurrent MatchAll grids must report
// exactly what a fresh Engine reports, on the first pass and on the
// repeat: nothing an earlier match leaves behind in the Engine's pools
// may change a later report. Run under -race in CI.
func TestEngineRepeatMatchBitIdentical(t *testing.T) {
	var sources, targets []*qmatch.Schema
	for _, p := range enginePairs() {
		sources = append(sources, p[0])
		targets = append(targets, p[1])
	}
	encode := func(r *qmatch.Report) string {
		var b strings.Builder
		if err := r.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	fresh, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]string, len(sources))
	for i, s := range sources {
		for _, tg := range targets {
			want[i] = append(want[i], encode(fresh.Match(s, tg)))
		}
	}

	shared, err := qmatch.NewEngine(qmatch.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		const grids = 2
		got := make([][][]*qmatch.Report, grids)
		errs := make([]error, grids)
		var wg sync.WaitGroup
		for g := 0; g < grids; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g], errs[g] = shared.MatchAll(context.Background(), sources, targets)
			}()
		}
		wg.Wait()
		for g := 0; g < grids; g++ {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			for i := range sources {
				for j := range targets {
					if enc := encode(got[g][i][j]); enc != want[i][j] {
						t.Errorf("pass %d grid %d cell (%d,%d): report differs from a fresh Engine's\ngot  %s\nwant %s",
							pass, g, i, j, enc, want[i][j])
					}
				}
			}
		}
	}
}

func TestMatchAllCancellation(t *testing.T) {
	eng, err := qmatch.NewEngine(qmatch.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	pairs := enginePairs()
	var sources, targets []*qmatch.Schema
	for _, p := range pairs {
		sources = append(sources, p[0])
		targets = append(targets, p[1])
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any work
	out, err := eng.MatchAll(ctx, sources, targets)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled MatchAll returned a result")
	}
}

func TestMatchAllEmptyAndNilContext(t *testing.T) {
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.MatchAll(nil, nil, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty MatchAll = %v, %v", out, err)
	}
	src, tgt := poPairXSD(t)
	grid, err := eng.MatchAll(nil, []*qmatch.Schema{src}, []*qmatch.Schema{tgt})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grid[0][0], eng.Match(src, tgt)) {
		t.Fatal("nil-context MatchAll differs from Match")
	}
}

func TestEngineRankEqualsPackageRank(t *testing.T) {
	pairs := enginePairs()
	query := pairs[0][0]
	var corpus []*qmatch.Schema
	for _, p := range pairs {
		corpus = append(corpus, p[1])
	}
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	got := eng.Rank(query, corpus)
	want := qmatch.Rank(query, corpus)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("engine Rank differs from package-level Rank")
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatal("rank not sorted by descending score")
		}
	}
}
