package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestSmoke runs every declared workload end to end, with tracing off and
// on, against a real dustserve over a lake of 60 tables of about 20 rows,
// with one-second windows. runWorkload itself fails when the metrics it
// measured are not exactly the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	mf, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var declaredNames, ours []string
	for _, w := range mf.Workloads {
		declaredNames = append(declaredNames, w.Name)
	}
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(declaredNames, ours) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", declaredNames, ours)
	}

	out := t.TempDir()
	bin, err := buildServer(".", out)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{tables: 60, perClass: 1, spare: 1, rounds: 3, mutations: 2,
		rate: 40, window: time.Second}
	for _, w := range workloads {
		w.rows = 20
		for _, traced := range []bool{false, true} {
			o := options{moddir: ".", out: out, seed: 7, trace: traced}
			rep, err := runWorkload(w, cfg, o, mf, bin)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("%s (trace %v): correct %v, attempted %d, failed %d", w.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			if traced {
				if fi, err := os.Stat(filepath.Join(out, "trace-"+w.name+".jsonl")); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no trace written: %v", w.name, err)
				}
			}
		}
	}
}

// TestPinnedInputs checks the recorded input hashes against the generator.
func TestPinnedInputs(t *testing.T) {
	for _, w := range workloads {
		cfg := defaultConfig(1)
		in, err := makeInputs(w, cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkPinned(w, cfg, options{moddir: ".", seed: 7}, in); err != nil {
			t.Error(err)
		}
	}
}

func TestPlanOpenLoop(t *testing.T) {
	plan := planOpenLoop(rand.New(rand.NewSource(3)), 50, 20*time.Second, 8, 32)
	again := planOpenLoop(rand.New(rand.NewSource(3)), 50, 20*time.Second, 8, 32)
	if !slices.Equal(plan, again) {
		t.Fatal("the same seed planned different requests")
	}
	putAt := map[string]time.Duration{}
	counts := map[opKind]int{}
	for _, o := range plan {
		counts[o.kind]++
		switch o.kind {
		case opPut:
			if _, dup := putAt[o.name]; dup {
				t.Fatalf("table %s is added twice", o.name)
			}
			putAt[o.name] = o.at
		case opDelete:
			at, ok := putAt[o.name]
			if !ok || o.at < at+deleteAge {
				t.Fatalf("DELETE of %s at %v, added at %v (known %v)", o.name, o.at, at, ok)
			}
			delete(putAt, o.name)
		}
	}
	if counts[opSearch] == 0 || counts[opPut] == 0 || counts[opDelete] == 0 {
		t.Fatalf("plan lacks a class: %v", counts)
	}
}

func TestCompare(t *testing.T) {
	mf := &manifest{EndToEnd: []declared{
		{Name: "search_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "avg_diversity", Unit: "score", Better: "higher", Bound: 0.05},
	}}
	mf.Workloads = append(mf.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "balanced"})
	write := func(name string, p50, div float64) string {
		r := results{Workloads: map[string]*workloadResults{"balanced": {EndToEnd: result{Metrics: map[string]metric{
			"search_p50_ms": {p50, "ms"}, "avg_diversity": {div, "score"}}}}}}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 50, 4)
	for _, c := range []struct {
		name     string
		p50, div float64
		want     bool
	}{
		{"same", 50, 4, true},
		{"faster and within bounds", 40, 3.9, true},
		{"slower than the bound", 56, 4, false},
		{"less diverse than the bound", 50, 3.7, false},
	} {
		got, err := compareFiles(io.Discard, mf, base, write("b.json", c.p50, c.div))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: within bounds = %v, want %v", c.name, got, c.want)
		}
	}
}
