package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("jobs_total", "jobs processed", "kind")
	c.With("a").Inc()
	c.With("a").Add(2)
	c.With("b").Inc()
	if got := c.With("a").Value(); got != 3 {
		t.Fatalf("counter a = %d, want 3", got)
	}
	r.NewGaugeFunc("depth", "queue depth", nil, func(emit func(float64, ...string)) { emit(3) })

	out := scrape(t, r)
	for _, want := range []string{
		"# HELP jobs_total jobs processed\n",
		"# TYPE jobs_total counter\n",
		`jobs_total{kind="a"} 3` + "\n",
		`jobs_total{kind="b"} 1` + "\n",
		"# TYPE depth gauge\n",
		"depth 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Series within a family are sorted by label values.
	if strings.Index(out, `kind="a"`) > strings.Index(out, `kind="b"`) {
		t.Fatalf("series not sorted by label value:\n%s", out)
	}
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.With().Observe(v)
	}
	hh := h.With()
	if hh.Count() != 5 {
		t.Fatalf("count = %d, want 5", hh.Count())
	}
	if sum := hh.Sum(); sum < 102.64 || sum > 102.66 {
		t.Fatalf("sum = %v, want 102.65", sum)
	}

	out := scrape(t, r)
	// Cumulative buckets: <=0.1 holds 2 (0.05 and the boundary 0.1),
	// <=1 holds 3, <=10 holds 4, +Inf holds all 5.
	for _, want := range []string{
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.1"} 2` + "\n",
		`lat_seconds_bucket{le="1"} 3` + "\n",
		`lat_seconds_bucket{le="10"} 4` + "\n",
		`lat_seconds_bucket{le="+Inf"} 5` + "\n",
		"lat_seconds_count 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	epoch := 7
	r.NewGaugeFunc("epoch", "index epoch", nil, func(emit func(float64, ...string)) {
		emit(float64(epoch))
	})
	r.NewCounterFunc("shard_tables", "tables per shard", []string{"shard"},
		func(emit func(float64, ...string)) {
			for i, n := range []int{3, 4} {
				emit(float64(n), strconv.Itoa(i))
			}
		})
	out := scrape(t, r)
	for _, want := range []string{
		"epoch 7\n",
		`shard_tables{shard="0"} 3` + "\n",
		`shard_tables{shard="1"} 4` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	epoch = 9
	if !strings.Contains(scrape(t, r), "epoch 9\n") {
		t.Fatal("gauge func did not re-read live value")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("weird", "has \\ and\nnewline", "v")
	c.With("a\"b\\c\nd").Inc()
	out := scrape(t, r)
	if !strings.Contains(out, `# HELP weird has \\ and\nnewline`) {
		t.Fatalf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `weird{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup", "")
	mustPanic(t, "duplicate name", func() { r.NewCounter("dup", "") })
	v := r.NewCounter("arity", "", "a", "b")
	mustPanic(t, "label arity", func() { v.With("only-one") })
	mustPanic(t, "unsorted buckets", func() { r.NewHistogram("h", "", []float64{1, 1}) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestConcurrentObserve races writers against scrapes; run under -race this
// pins the lock-free hot path.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("n", "", "w")
	h := r.NewHistogram("h_seconds", "", nil, "w")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			lv := strconv.Itoa(w % 2)
			for i := 0; i < 1000; i++ {
				c.With(lv).Inc()
				h.With(lv).Observe(float64(i) / 1000)
			}
		}()
	}
	for i := 0; i < 10; i++ {
		_ = scrape(t, r)
	}
	wg.Wait()
	if total := c.With("0").Value() + c.With("1").Value(); total != 4000 {
		t.Fatalf("lost increments: %d, want 4000", total)
	}
	if n := h.With("0").Count() + h.With("1").Count(); n != 4000 {
		t.Fatalf("lost observations: %d, want 4000", n)
	}
}
