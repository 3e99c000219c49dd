package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dust"
	"dust/internal/datagen"
	"dust/internal/table"
)

// canonParts renders one search result in a canonical comparable form:
// retrieved tables, result tuples, and provenance.
func canonParts(tables []string, rows [][]string, provTables []string, provRows []int) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(tables, "|"))
	sb.WriteString("§")
	for i, row := range rows {
		sb.WriteString(strings.Join(row, "\x1f"))
		sb.WriteString(fmt.Sprintf("@%s:%d;", provTables[i], provRows[i]))
	}
	return sb.String()
}

func canonResult(res *dust.Result) string {
	rows := rowsOf(res.Tuples)
	pt := make([]string, len(res.Provenance))
	pr := make([]int, len(res.Provenance))
	for i, p := range res.Provenance {
		pt[i], pr[i] = p.Table, p.Row
	}
	return canonParts(res.UnionableTables, rows, pt, pr)
}

func canonResponse(out searchResponse) string {
	pt := make([]string, len(out.Provenance))
	pr := make([]int, len(out.Provenance))
	for i, p := range out.Provenance {
		pt[i], pr[i] = p.Table, p.Row
	}
	return canonParts(out.Tables, out.Tuples.Rows, pt, pr)
}

// soakMutation is one step of the deterministic mutation schedule.
type soakMutation struct {
	add    *table.Table
	remove string
}

// TestSoakConcurrentSearchAndMutation is the load/soak harness: client
// goroutines hammer /search while a mutator applies a deterministic
// add/remove schedule through the HTTP API. Every response must (1)
// succeed, (2) carry an epoch no older than the client last observed — a
// stale-epoch cache hit would violate that monotonicity — and (3) be
// bit-identical to the result a from-scratch pipeline at that epoch's
// table set produces, i.e. every answer matches some consistent snapshot.
// Run under -race in CI.
func TestSoakConcurrentSearchAndMutation(t *testing.T) {
	spec := datagen.LakeSpec{Name: "soak", Seed: 17, Tables: 14, Rows: 16}
	l := spec.Generate()
	const k = 5

	// Hold three tables out of the lake; the mutator adds/removes them live.
	names := l.Names()
	held := make([]*table.Table, 3)
	for i := range held {
		held[i] = l.Get(names[len(names)-1-i])
		if err := l.Remove(held[i].Name); err != nil {
			t.Fatal(err)
		}
	}
	schedule := []soakMutation{
		{add: held[0]},
		{add: held[1]},
		{remove: held[0].Name},
		{add: held[2]},
		{remove: held[1].Name},
		{remove: held[2].Name},
	}

	p := dust.New(l, dust.WithTopTables(4))
	// Query tables come from the same spec, so they hit real lake content.
	queries := make([]*table.Table, 3)
	for i := range queries {
		queries[i] = spec.Query(i)
	}

	// Precompute the expected result for every (epoch, query) pair by
	// replaying the schedule through successors — the server must never
	// serve anything else.
	expected := make([]map[string]string, len(schedule)+1)
	record := func(epoch int, pl *dust.Pipeline) {
		m := make(map[string]string, len(queries))
		for _, q := range queries {
			res, err := pl.Search(q, k)
			if err != nil {
				t.Fatalf("expected result, epoch %d, query %s: %v", epoch, q.Name, err)
			}
			m[q.Name] = canonResult(res)
		}
		expected[epoch] = m
	}
	record(0, p)
	replay := p
	for i, mu := range schedule {
		var next *dust.Pipeline
		var err error
		if mu.add != nil {
			next, err = replay.WithTable(mu.add.Clone(mu.add.Name))
		} else {
			next, err = replay.WithoutTable(mu.remove)
		}
		if err != nil {
			t.Fatalf("replay mutation %d: %v", i, err)
		}
		record(i+1, next)
		replay = next
	}

	srv := New(p, WithTimeout(30*time.Second), WithMaxInFlight(8))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	errCh := make(chan error, 256)
	var wg sync.WaitGroup

	// Mutator: walk the schedule over HTTP with small gaps so swaps land
	// mid-traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, mu := range schedule {
			time.Sleep(25 * time.Millisecond)
			if mu.add != nil {
				body, _ := json.Marshal(tableJSON{Headers: mu.add.Headers(), Rows: rowsOf(mu.add)})
				req, _ := http.NewRequest(http.MethodPut, ts.URL+"/tables/"+mu.add.Name, bytes.NewReader(body))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errCh <- fmt.Errorf("mutation %d: %w", i, err)
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					errCh <- fmt.Errorf("mutation %d (add %s): status %d", i, mu.add.Name, resp.StatusCode)
				}
			} else {
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/tables/"+mu.remove, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errCh <- fmt.Errorf("mutation %d: %w", i, err)
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("mutation %d (remove %s): status %d", i, mu.remove, resp.StatusCode)
				}
			}
		}
	}()

	// Clients: hammer /search, validating every response against the
	// precomputed per-epoch truth.
	const clients = 6
	const reqsPerClient = 25
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lastEpoch := uint64(0)
			for i := 0; i < reqsPerClient; i++ {
				q := queries[(c+i)%len(queries)]
				body, _ := json.Marshal(searchRequest{
					Query: tableJSON{Headers: q.Headers(), Rows: rowsOf(q)}, K: k,
				})
				resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- fmt.Errorf("client %d req %d: %w", c, i, err)
					continue
				}
				var out searchResponse
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("client %d req %d: status %d", c, i, resp.StatusCode)
					continue
				}
				if decErr != nil {
					errCh <- fmt.Errorf("client %d req %d: decode: %w", c, i, decErr)
					continue
				}
				if out.Epoch < lastEpoch {
					errCh <- fmt.Errorf("client %d req %d: epoch went backwards %d -> %d (stale cache hit?)",
						c, i, lastEpoch, out.Epoch)
					continue
				}
				lastEpoch = out.Epoch
				if out.Epoch >= uint64(len(expected)) {
					errCh <- fmt.Errorf("client %d req %d: epoch %d beyond schedule", c, i, out.Epoch)
					continue
				}
				if got, want := canonResponse(out), expected[out.Epoch][q.Name]; got != want {
					errCh <- fmt.Errorf("client %d req %d (cached=%v): result does not match snapshot epoch %d for %s",
						c, i, out.Cached, out.Epoch, q.Name)
				}
			}
		}(c)
	}

	wg.Wait()
	close(errCh)
	failures := 0
	for err := range errCh {
		failures++
		if failures <= 10 {
			t.Error(err)
		}
	}
	if failures > 10 {
		t.Errorf("... and %d more failures", failures-10)
	}

	var hz struct {
		Epoch  uint64 `json:"epoch"`
		Tables int    `json:"tables"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if hz.Epoch != uint64(len(schedule)) {
		t.Fatalf("final epoch %d, want %d", hz.Epoch, len(schedule))
	}
	if hz.Tables != l.Len() {
		t.Fatalf("final table count %d, want %d (schedule removes everything it adds)", hz.Tables, l.Len())
	}
}

// Fixed specs for the throughput benchmarks: the seeds pin the lakes
// bit-for-bit, so numbers stay comparable across commits.
var (
	benchSpec      = datagen.LakeSpec{Name: "serve-bench", Seed: 81, Tables: 20, Rows: 22}
	largeBenchSpec = datagen.LakeSpec{Name: "serve-bench-large", Seed: 82, Tables: 600, Rows: 22}
)

// specServer builds a server over a LakeSpec lake and pre-marshals a
// search body from the spec's first query table.
func specServer(b *testing.B, spec datagen.LakeSpec, opts ...Option) (*Server, *httptest.Server, []byte) {
	p := dust.New(spec.Generate(), dust.WithTopTables(5))
	srv := New(p, opts...)
	ts := httptest.NewServer(srv)
	b.Cleanup(ts.Close)
	q := spec.Query(0)
	body, err := json.Marshal(searchRequest{
		Query: tableJSON{Headers: q.Headers(), Rows: rowsOf(q)}, K: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	return srv, ts, body
}

// BenchmarkServeThroughput measures end-to-end request latency and
// aggregate QPS through the full HTTP stack, uncached (cache disabled, the
// pipeline runs every time) vs cached (every request after the first is a
// fingerprint lookup). The acceptance floor is cached >= 5x faster than
// uncached.
func BenchmarkServeThroughput(b *testing.B) {
	run := func(b *testing.B, ts *httptest.Server, body []byte) {
		b.ResetTimer()
		start := time.Now()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
				}
				var out searchResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					b.Errorf("decode: %v", err)
				}
				resp.Body.Close()
			}
		})
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "qps")
	}

	b.Run("uncached", func(b *testing.B) {
		_, ts, body := specServer(b, benchSpec, WithCacheCapacity(0), WithMaxInFlight(8))
		run(b, ts, body)
	})
	b.Run("cached", func(b *testing.B) {
		_, ts, body := specServer(b, benchSpec, WithCacheCapacity(1024), WithMaxInFlight(8))
		// Warm the single cache line the benchmark hits.
		resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		run(b, ts, body)
	})

	// The saturated pair measures cost-aware degradation where it matters:
	// a larger lake (half the tables is real work saved), caching off
	// (every request computes), and 7 of 8 slots pinned so the load factor
	// stays above the degrade threshold for every request. The exact arm
	// is the baseline the degraded arm must beat under the same load.
	saturate := func(b *testing.B, srv *Server) {
		for i := 0; i < 7; i++ {
			srv.sem <- struct{}{}
		}
		b.Cleanup(func() {
			for i := 0; i < 7; i++ {
				<-srv.sem
			}
		})
	}
	b.Run("saturated-exact", func(b *testing.B) {
		srv, ts, body := specServer(b, largeBenchSpec, WithCacheCapacity(0), WithMaxInFlight(8))
		saturate(b, srv)
		run(b, ts, body)
	})
	b.Run("saturated-degraded", func(b *testing.B) {
		srv, ts, body := specServer(b, largeBenchSpec, WithCacheCapacity(0), WithMaxInFlight(8),
			WithDegradeThreshold(0.5))
		saturate(b, srv)
		run(b, ts, body)
	})
}
