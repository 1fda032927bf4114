// Package obs is the zero-external-dependency observability layer of the
// matcher: a concurrency-safe metrics registry (counters, gauges,
// fixed-bucket latency histograms) with expvar registration and a
// Prometheus-text exposition writer, plus per-match phase traces
// (trace.go). Every instrument is nil-safe — calling a method on a nil
// *Counter, *Gauge, *Histogram, *Trace or *ActiveSpan is a no-op — so
// instrumented code holds possibly-nil handles and calls them
// unconditionally: the disabled path is a nil-check, no branches to
// maintain and zero allocations.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 metric (pool sizes, in-flight work).
type Gauge struct{ v atomic.Int64 }

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by n (use negative n to decrement). No-op on nil.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Bounds are ascending upper
// bounds; an implicit +Inf bucket catches the overflow. Observations are
// lock-free: one atomic add into the owning bucket plus a CAS loop folding
// the value into the float64 sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

// DefaultDurationBuckets are the second-denominated bounds the Engine's
// match-duration histogram uses: 100µs up to 10s, roughly ×2.5 per step —
// wide enough for both the 10-node PO pair and the 231×3753 protein match.
var DefaultDurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra final
	// entry for the +Inf bucket. Counts are per-bucket, not cumulative.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
	// Percentiles are p50/p90/p99 estimates derived from the buckets
	// (see Quantile); omitted for empty histograms.
	Percentiles map[string]float64 `json:"percentiles,omitempty"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.Percentiles = map[string]float64{
			"p50": s.Quantile(0.50),
			"p90": s.Quantile(0.90),
			"p99": s.Quantile(0.99),
		}
	}
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts,
// interpolating linearly inside the bucket the quantile lands in — the
// same estimate Prometheus's histogram_quantile computes. Observations in
// the +Inf bucket clamp to the highest finite bound (there is no upper
// edge to interpolate toward); an empty histogram returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			cum += c
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: clamp to the largest finite bound.
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		frac := (rank - float64(prev)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		return lower + (upper-lower)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Registry is a concurrency-safe collection of named instruments. Names
// follow Prometheus conventions and may carry a literal label block, e.g.
// "qmatch_phase_ns_total{phase=\"pairtable\"}"; the exposition writer
// splices histogram suffixes and the le label into such blocks correctly.
//
// Lookup methods are get-or-create and idempotent: the first call for a
// name creates the instrument, later calls return the same one, so
// instrumented code may resolve handles eagerly (hot paths) or lazily.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() int64),
		hists:      make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a pull-style gauge evaluated at snapshot time — the
// zero-hot-path-cost way to expose counters another subsystem already
// maintains (the Go runtime's statistics). Re-registering a name
// replaces the function.
func (r *Registry) GaugeFunc(name string, f func() int64) {
	r.mu.Lock()
	r.gaugeFuncs[name] = f
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds (ascending; nil selects DefaultDurationBuckets) on first use.
// Later calls ignore bounds and return the existing histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		if bounds == nil {
			bounds = DefaultDurationBuckets
		}
		h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// Value returns the current value of the named counter, gauge or gauge
// func, and whether the name is registered.
func (r *Registry) Value(name string) (int64, bool) {
	r.mu.RLock()
	c, g, f := r.counters[name], r.gauges[name], r.gaugeFuncs[name]
	r.mu.RUnlock()
	switch {
	case c != nil:
		return c.Value(), true
	case g != nil:
		return g.Value(), true
	case f != nil:
		return f(), true
	}
	return 0, false
}

// Snapshot is a JSON-serializable copy of every instrument. Gauge funcs
// are evaluated and folded into Gauges.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the current value of every instrument. Counters and
// gauges are read atomically per instrument; the snapshot as a whole may
// interleave with concurrent updates.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)+len(r.gaugeFuncs)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, f := range r.gaugeFuncs {
		s.Gauges[name] = f()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON (map keys are emitted in
// sorted order by encoding/json, so output is deterministic for fixed
// values).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// String renders the snapshot as JSON, which makes a Registry an
// expvar.Var: expvar.Publish("qmatch", registry) exposes every instrument
// under one /debug/vars key.
func (r *Registry) String() string {
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

var _ expvar.Var = (*Registry)(nil)

// Publish registers the registry with the process-global expvar page under
// the given name. Unlike expvar.Publish it is idempotent: if the name is
// already taken (by this registry or anything else) it does nothing, so
// tests and multi-engine processes cannot panic on re-registration.
func (r *Registry) Publish(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, r)
}

// LabeledName builds an instrument name carrying a literal label block
// from alternating key/value pairs:
//
//	LabeledName("http_requests_total", "route", "match", "code", "200")
//	  => `http_requests_total{route="match",code="200"}`
//
// Backslashes, quotes and newlines in values are escaped per the
// Prometheus text format (`\\`, `\"`, `\n`) — a hostile label value cannot
// break out of its sample line or inject new samples into the exposition.
// With no pairs the base name is returned unchanged. This is the inverse
// convention of splitName: names built here expose correctly in
// WritePrometheus, grouped under the base family.
func LabeledName(base string, kv ...string) string {
	if len(kv) < 2 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		v := kv[i+1]
		for j := 0; j < len(v); j++ {
			switch v[j] {
			case '\\':
				b.WriteString(`\\`)
			case '"':
				b.WriteString(`\"`)
			case '\n':
				b.WriteString(`\n`)
			default:
				b.WriteByte(v[j])
			}
		}
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// splitName separates an instrument name into its base and an optional
// literal label block: "foo{a=\"b\"}" -> ("foo", `a="b"`).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every instrument in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative _bucket/_sum/_count series with the
// standard le label. Families and samples are sorted by name (histogram
// buckets stay in ascending-bound order), so output is deterministic for
// fixed values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()

	type family struct {
		kind  string // "counter", "gauge", "histogram"
		lines []string
	}
	families := make(map[string]*family)
	add := func(base, kind string, lines ...string) {
		f := families[base]
		if f == nil {
			f = &family{kind: kind}
			families[base] = f
		}
		f.lines = append(f.lines, lines...)
	}

	// Single-sample families: lines sort cleanly by name.
	for name, v := range snap.Counters {
		base, _ := splitName(name)
		add(base, "counter", fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range snap.Gauges {
		base, _ := splitName(name)
		add(base, "gauge", fmt.Sprintf("%s %d", name, v))
	}
	for base := range families {
		sort.Strings(families[base].lines)
	}

	// Histogram blocks must keep ascending-le order; emit each block
	// whole, blocks ordered by full instrument name.
	histNames := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		histNames = append(histNames, name)
	}
	sort.Strings(histNames)
	for _, name := range histNames {
		h := snap.Histograms[name]
		base, labels := splitName(name)
		block := make([]string, 0, len(h.Counts)+2)
		cum := int64(0)
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = formatFloat(h.Bounds[i])
			}
			lb := `le="` + le + `"`
			if labels != "" {
				lb = labels + "," + lb
			}
			block = append(block, fmt.Sprintf("%s_bucket{%s} %d", base, lb, cum))
		}
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		block = append(block,
			fmt.Sprintf("%s_sum%s %s", base, suffix, formatFloat(h.Sum)),
			fmt.Sprintf("%s_count%s %d", base, suffix, cum))
		add(base, "histogram", block...)
	}

	bases := make([]string, 0, len(families))
	for base := range families {
		bases = append(bases, base)
	}
	sort.Strings(bases)
	for _, base := range bases {
		f := families[base]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, f.kind); err != nil {
			return err
		}
		for _, line := range f.lines {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}
