package qmatch_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qmatch"
)

// assertNoLabelCacheMetrics fails the test if the Engine exports any
// qmatch_label_cache_* series: the Engine keeps no label-score cache, so
// the deprecated names must read absent and appear in neither exposition.
func assertNoLabelCacheMetrics(t *testing.T, e *qmatch.Engine) {
	t.Helper()
	for _, name := range []string{qmatch.MetricCacheHits, qmatch.MetricCacheMisses, qmatch.MetricCacheEvictions} {
		if v, ok := e.MetricValue(name); ok {
			t.Errorf("MetricValue(%s) = %d, present; want absent", name, v)
		}
	}
	var prom, js bytes.Buffer
	if err := e.WriteMetrics(&prom); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteMetricsJSON(&js); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(prom.String(), "qmatch_label_cache") || strings.Contains(js.String(), "qmatch_label_cache") {
		t.Errorf("metrics export a qmatch_label_cache_* series:\n%s\n%s", prom.String(), js.String())
	}
}

// A repeat of the same pair on one Engine does the full pair-table fill
// again — nothing is answered from a label-score cache — and reports
// exactly what the first match reported. The cells counter therefore
// doubles, and no label-cache hit/miss counters are exported.
func TestEngineCacheHitCounters(t *testing.T) {
	e, err := qmatch.NewEngine(qmatch.WithObserver(qmatch.Observer{Metrics: true}))
	if err != nil {
		t.Fatal(err)
	}
	assertNoLabelCacheMetrics(t, e)
	pair := enginePairs()[0]
	cold := e.Match(pair[0], pair[1])
	coldCells, _ := e.MetricValue(qmatch.MetricCells)
	if want := int64(pair[0].Size()) * int64(pair[1].Size()); coldCells != want {
		t.Fatalf("cold match cells = %d, want %d", coldCells, want)
	}
	warm := e.Match(pair[0], pair[1])
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("repeat match report differs from the first")
	}
	if warmCells, _ := e.MetricValue(qmatch.MetricCells); warmCells != 2*coldCells {
		t.Fatalf("cells after repeat = %d, want %d", warmCells, 2*coldCells)
	}
	if got, _ := e.MetricValue(qmatch.MetricMatches); got != 2 {
		t.Fatalf("matches counter = %d, want 2", got)
	}
	assertNoLabelCacheMetrics(t, e)
}

// One Engine shared by a MatchAll grid and parallel Match calls at the
// same time: under -race, every report must equal a fresh Engine's and
// the counters must add up, with no label-cache series exported.
func TestEngineCacheConcurrent(t *testing.T) {
	e, err := qmatch.NewEngine(qmatch.WithParallelism(4),
		qmatch.WithObserver(qmatch.Observer{Metrics: true}))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	pairs := enginePairs()
	sources := make([]*qmatch.Schema, 0, len(pairs))
	targets := make([]*qmatch.Schema, 0, len(pairs))
	for _, p := range pairs {
		sources = append(sources, p[0])
		targets = append(targets, p[1])
	}

	var grid [][]*qmatch.Report
	var gridErr error
	singles := make([]*qmatch.Report, len(pairs))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		grid, gridErr = e.MatchAll(context.Background(), sources, targets)
	}()
	for i, p := range pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			singles[i] = e.Match(p[0], p[1])
		}()
	}
	wg.Wait()
	if gridErr != nil {
		t.Fatal(gridErr)
	}

	for i, p := range pairs {
		if want := fresh.Match(p[0], p[1]); !reflect.DeepEqual(singles[i], want) {
			t.Errorf("pair %d: concurrent Match differs from a fresh Engine's", i)
		}
	}
	for i, s := range sources {
		for j, tg := range targets {
			if want := fresh.Match(s, tg); !reflect.DeepEqual(grid[i][j], want) {
				t.Errorf("cell (%d,%d): concurrent MatchAll differs from a fresh Engine's", i, j)
			}
		}
	}
	if got, want := mustMetric(t, e, qmatch.MetricMatches), int64(len(sources)*len(targets)+len(pairs)); got != want {
		t.Errorf("matches counter = %d, want %d", got, want)
	}
	if got := mustMetric(t, e, qmatch.MetricInflight); got != 0 {
		t.Errorf("inflight gauge = %d after the batch, want 0", got)
	}
	assertNoLabelCacheMetrics(t, e)
}

func mustMetric(t *testing.T, e *qmatch.Engine, name string) int64 {
	t.Helper()
	v, ok := e.MetricValue(name)
	if !ok {
		t.Fatalf("metric %s absent", name)
	}
	return v
}
