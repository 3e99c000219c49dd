// Package obs is the repo's stdlib-only observability substrate: named
// counters, gauges, and fixed-bucket latency histograms collected in a
// Registry and exposed in the Prometheus text format (version 0.0.4).
// The serving layer (internal/serve) registers its per-endpoint request
// metrics here and mounts the registry as GET /metrics; nothing in the
// package depends on HTTP, so benchmarks and CLIs can scrape a registry
// into any io.Writer.
//
// Two metric shapes coexist:
//
//   - Vec metrics (NewCounter, NewHistogram) own their state:
//     With(labelValues...) returns the child for one label combination,
//     backed by atomics, safe for concurrent use and allocation-free on
//     the hot path once a child exists.
//   - Func metrics (NewCounterFunc, NewGaugeFunc) read state the caller
//     already maintains — an epoch, a cache's entry count, a lake's table
//     count — by invoking a callback at scrape time, so scrapes always
//     report the live value without double bookkeeping.
//
// Metric and label names are the caller's contract with their dashboards;
// the registry panics on duplicate registration, the one misuse that would
// silently merge unrelated series.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the exposition TYPE of a metric family.
type Kind int

// The metric kinds the registry exposes.
const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution with sum and count.
	KindHistogram
)

// typeName renders the Kind the way the TYPE comment spells it.
func (k Kind) typeName() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// DefBuckets are the default latency buckets in seconds: sub-millisecond
// cache hits through multi-second cold queries, roughly logarithmic.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing uint64, safe for concurrent use.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Histogram is a fixed-bucket distribution of float64 observations
// (latency in seconds, by convention). Buckets are upper bounds; an
// observation lands in the first bucket whose bound is >= the value, or in
// the implicit +Inf bucket. Observe is lock-free.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64   // float64 bits of the running sum
	count   atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// family is one named metric with a fixed label schema and either owned
// children (vec metrics) or a scrape-time callback (func metrics).
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histograms only

	mu       sync.RWMutex
	children map[string]any // label-value key -> *Counter | *Histogram
	keys     []string       // insertion-ordered child keys, sorted at scrape

	collect func(emit func(value float64, labelValues ...string))
}

// child returns (creating if needed) the metric for one label combination.
func (f *family) child(lvs []string) any {
	if len(lvs) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s has labels %v, got %d values", f.name, f.labels, len(lvs)))
	}
	key := strings.Join(lvs, "\xff")
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	if f.kind == KindHistogram {
		c = newHistogram(f.bounds)
	} else {
		c = new(Counter)
	}
	f.children[key] = c
	f.keys = append(f.keys, key)
	return c
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (one per label key,
// in registration order), creating it on first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.child(labelValues).(*Counter)
}

// HistogramVec is a histogram family keyed by label values; every child
// shares the family's bucket bounds.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.child(labelValues).(*Histogram)
}

// Registry collects metric families and renders them as Prometheus text.
// Registration (the New* methods) is for startup: it panics on a duplicate
// name. Scraping and metric updates are safe concurrently.
type Registry struct {
	mu   sync.Mutex
	fams []*family
	seen map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{seen: map[string]bool{}} }

func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[f.name] {
		panic("obs: duplicate metric " + f.name)
	}
	r.seen[f.name] = true
	r.fams = append(r.fams, f)
}

// NewCounter registers a counter family; labelKeys may be empty for a
// single-series counter (access it as With()).
func (r *Registry) NewCounter(name, help string, labelKeys ...string) *CounterVec {
	f := &family{name: name, help: help, kind: KindCounter, labels: labelKeys, children: map[string]any{}}
	r.register(f)
	return &CounterVec{f}
}

// NewHistogram registers a histogram family with the given bucket upper
// bounds (ascending; nil selects DefBuckets).
func (r *Registry) NewHistogram(name, help string, buckets []float64, labelKeys ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets for " + name + " not strictly ascending")
		}
	}
	f := &family{name: name, help: help, kind: KindHistogram, labels: labelKeys,
		bounds: buckets, children: map[string]any{}}
	r.register(f)
	return &HistogramVec{f}
}

// NewCounterFunc registers a counter family whose samples are produced at
// scrape time by collect calling emit once per series. The callback must
// be safe for concurrent scrapes and emit monotonically non-decreasing
// values; use it to expose counters the caller already maintains.
func (r *Registry) NewCounterFunc(name, help string, labelKeys []string, collect func(emit func(value float64, labelValues ...string))) {
	r.register(&family{name: name, help: help, kind: KindCounter, labels: labelKeys, collect: collect})
}

// NewGaugeFunc registers a gauge family whose samples are produced at
// scrape time by collect calling emit once per series — live levels like
// an epoch, a cache's entry count, or a lake's table count.
func (r *Registry) NewGaugeFunc(name, help string, labelKeys []string, collect func(emit func(value float64, labelValues ...string))) {
	r.register(&family{name: name, help: help, kind: KindGauge, labels: labelKeys, collect: collect})
}

// WriteText renders every family in registration order as Prometheus text
// exposition format (series within a family sorted by label values).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind.typeName())
		if f.collect != nil {
			f.collect(func(value float64, labelValues ...string) {
				writeSample(&b, f.name, f.labels, labelValues, value)
			})
		} else {
			f.mu.RLock()
			keys := make([]string, len(f.keys))
			copy(keys, f.keys)
			children := make([]any, len(keys))
			for i, k := range keys {
				children[i] = f.children[k]
			}
			f.mu.RUnlock()
			sort.Sort(&keyedChildren{keys, children})
			for i, key := range keys {
				lvs := splitKey(key, len(f.labels))
				switch c := children[i].(type) {
				case *Counter:
					writeSample(&b, f.name, f.labels, lvs, float64(c.Value()))
				case *Histogram:
					writeHistogram(&b, f.name, f.labels, lvs, c)
				}
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// keyedChildren sorts children alongside their label keys.
type keyedChildren struct {
	keys     []string
	children []any
}

func (k *keyedChildren) Len() int           { return len(k.keys) }
func (k *keyedChildren) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k *keyedChildren) Swap(i, j int) {
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
	k.children[i], k.children[j] = k.children[j], k.children[i]
}

// splitKey recovers the label values from a child key; n == 0 maps the
// empty key to no values.
func splitKey(key string, n int) []string {
	if n == 0 {
		return nil
	}
	return strings.SplitN(key, "\xff", n)
}

// writeHistogram renders one histogram series: cumulative buckets with the
// le label, the +Inf bucket, then _sum and _count.
func writeHistogram(b *strings.Builder, name string, labels, lvs []string, h *Histogram) {
	bl := make([]string, len(labels)+1)
	copy(bl, labels)
	bl[len(labels)] = "le"
	blv := make([]string, len(lvs)+1)
	copy(blv, lvs)
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		blv[len(lvs)] = formatFloat(bound)
		writeSample(b, name+"_bucket", bl, blv, float64(cum))
	}
	blv[len(lvs)] = "+Inf"
	writeSample(b, name+"_bucket", bl, blv, float64(h.Count()))
	writeSample(b, name+"_sum", labels, lvs, h.Sum())
	writeSample(b, name+"_count", labels, lvs, float64(h.Count()))
}

// writeSample renders one `name{labels} value` line.
func writeSample(b *strings.Builder, name string, labels, lvs []string, value float64) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, k := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(k)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(lvs[i]))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(value))
	b.WriteByte('\n')
}

// formatFloat renders a sample value the shortest exact way.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// ServeHTTP implements http.Handler: GET (or any method) returns the text
// exposition, so a Registry can be mounted directly as /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WriteText(w)
}
