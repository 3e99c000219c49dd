package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dust"
	"dust/internal/search"
	"dust/internal/table"
)

// occupySlot fills srv's only admission slot and returns a release func.
// Tests call it to make the load factor 1.0 deterministically.
func occupySlot(t *testing.T, srv *Server) func() {
	t.Helper()
	srv.sem <- struct{}{}
	var once sync.Once
	return func() { once.Do(func() { <-srv.sem }) }
}

// TestDegradedModeUnderLoad pins degraded admission end to end: with the
// single admission slot held, a search degrades to the snapshot's degraded
// view instead of queueing — flagged in the response, the request log, the
// degraded counter, and /metrics — answers exactly what
// dust.Pipeline.Degraded answers, over at most half the tables of the full
// answer, and is cached under its own config tag. Once load clears,
// searches run the full plan again.
func TestDegradedModeUnderLoad(t *testing.T) {
	var sink lockedBuffer
	srv, ts, b := newTestServer(t,
		WithDegradeThreshold(0.5), WithMaxInFlight(1),
		WithTimeout(10*time.Second), WithRequestLog(&sink))
	if srv.Snapshot().degraded == nil {
		t.Fatal("degrade threshold set but the snapshot has no degraded view")
	}
	q := b.Queries[0]
	body := searchBody(t, q, 5)
	want, err := srv.Snapshot().Pipeline().Degraded().Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}

	release := occupySlot(t, srv)
	defer release()
	// The degrade decision happens before admission; the parked request
	// still needs the slot, so free it once the request is waiting on it.
	released := make(chan struct{})
	go func() {
		defer close(released)
		deadline := time.Now().Add(5 * time.Second)
		for srv.waiting.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		release()
	}()

	resp, out := postSearch(t, ts.URL, body)
	<-released
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded search status %d", resp.StatusCode)
	}
	if !out.Degraded || out.Cached {
		t.Fatalf("overloaded search degraded=%v cached=%v, want true/false", out.Degraded, out.Cached)
	}
	if len(out.Tuples.Rows) == 0 {
		t.Fatal("degraded search returned no tuples")
	}
	if fmt.Sprint(out.Tuples.Rows) != fmt.Sprint(want.Tuples.Rows()) || fmt.Sprint(out.Tables) != fmt.Sprint(want.UnionableTables) {
		t.Fatalf("degraded body: tables %v tuples %v; Degraded().Search: tables %v tuples %v",
			out.Tables, out.Tuples.Rows, want.UnionableTables, want.Tuples.Rows())
	}
	degradedTables := out.Tables
	if got := srv.degraded.Load(); got != 1 {
		t.Fatalf("degraded counter = %d, want 1", got)
	}

	// Same query under load again: served from the degraded cache line,
	// before admission — no slot needed even though the server is full.
	srv.sem <- struct{}{}
	resp, out = postSearch(t, ts.URL, body)
	<-srv.sem
	if resp.StatusCode != http.StatusOK || !out.Cached || !out.Degraded {
		t.Fatalf("degraded repeat: status %d cached=%v degraded=%v, want 200/true/true",
			resp.StatusCode, out.Cached, out.Degraded)
	}
	if got := srv.degraded.Load(); got != 2 {
		t.Fatalf("degraded counter = %d, want 2", got)
	}

	// Load cleared: the same request runs exact and misses the exact-tag
	// cache line (degraded results never leak across tags).
	resp, out = postSearch(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK || out.Degraded || out.Cached {
		t.Fatalf("unloaded search: status %d degraded=%v cached=%v, want 200/false/false",
			resp.StatusCode, out.Degraded, out.Cached)
	}
	if len(degradedTables) > len(out.Tables)/2 {
		t.Fatalf("degraded search retrieved %d tables, the full one %d: want at most half", len(degradedTables), len(out.Tables))
	}

	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"dust_serve_degraded_total 2",
		"dust_serve_shed_total 0",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}

	degradedLines := 0
	for _, line := range strings.Split(strings.TrimSpace(sink.String()), "\n") {
		var rec requestLogLine
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %v (%s)", err, line)
		}
		if rec.Degraded {
			degradedLines++
		}
	}
	if degradedLines != 2 {
		t.Fatalf("request log has %d degraded lines, want 2", degradedLines)
	}
}

// TestShedWithRetryAfter pins the other overload branch: a pipeline
// retrieving a single table has nothing cheaper to degrade to, so past the
// threshold the request is refused with 503 + Retry-After: 1 instead of
// queueing.
func TestShedWithRetryAfter(t *testing.T) {
	b := fixedLake()
	p := dust.New(b.Lake, dust.WithTopTables(1))
	srv := New(p, WithDegradeThreshold(0.5), WithMaxInFlight(1), WithTimeout(10*time.Second))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	if srv.Snapshot().degraded != nil {
		t.Fatal("a one-table pipeline unexpectedly produced a distinct degraded view")
	}

	release := occupySlot(t, srv)
	defer release()

	resp, err := http.Post(ts.URL+"/search", "application/json",
		bytes.NewReader(searchBody(t, b.Queries[0], 5)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want 1", ra)
	}
	var e errorJSON
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "no degraded mode") {
		t.Fatalf("shed body %+v (err %v), want an error naming the missing degraded mode", e, err)
	}
	if srv.shed.Load() != 1 || srv.rejected.Load() != 1 {
		t.Fatalf("shed=%d rejected=%d, want 1/1", srv.shed.Load(), srv.rejected.Load())
	}
	text := scrapeMetrics(t, ts.URL)
	if !strings.Contains(text, "dust_serve_shed_total 1\n") {
		t.Error("exposition missing dust_serve_shed_total 1")
	}

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Shed != 1 {
		t.Fatalf("stats shed = %d, want 1", st.Shed)
	}
}

// TestCacheDisabledLabelsNone pins the documented cache-label contract:
// with caching disabled, /search observations carry cache="none" — not a
// fictitious "miss" against a cache that does not exist — and the body is
// byte for byte the one a caching server answers a miss with.
func TestCacheDisabledLabelsNone(t *testing.T) {
	var sink lockedBuffer
	_, ts, b := newTestServer(t, WithCacheCapacity(0), WithRequestLog(&sink))
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/search", searchBody(t, b.Queries[0], 5))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("uncached search status %d: %s", resp.StatusCode, body)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_search.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("cache-off body differs from the cached server's miss:\ngot:  %s\nwant: %s", body, want)
	}
	text := scrapeMetrics(t, ts.URL)
	if !strings.Contains(text, `dust_http_request_seconds_count{endpoint="/search",cache="none",class="2xx"} 1`+"\n") {
		t.Error(`exposition missing the cache="none" search sample`)
	}
	if strings.Contains(text, `endpoint="/search",cache="miss"`) {
		t.Error(`cache-disabled server labeled a request "miss"`)
	}
	var rec requestLogLine
	if err := json.Unmarshal([]byte(strings.TrimSpace(sink.String())), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Cache != "none" {
		t.Fatalf("request log cache = %q, want \"none\"", rec.Cache)
	}
}

// searchUnderLoad posts body with srv's one admission slot held, so the
// search is overloaded, and frees the slot once the search waits for it.
func searchUnderLoad(t *testing.T, srv *Server, url string, body []byte) searchResponse {
	t.Helper()
	release := occupySlot(t, srv)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			if srv.waiting.Load() > 0 {
				release()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	defer release()
	defer close(done)
	resp, out := postSearch(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search under load: status %d", resp.StatusCode)
	}
	return out
}

// countingSearcher counts the query preparations of a searcher, of its
// views and of its WithTable successors, which share the counter.
type countingSearcher struct {
	search.Searcher
	prepares *atomic.Int64
}

func (c countingSearcher) Prepare(q *table.Table) search.PreparedQuery {
	c.prepares.Add(1)
	return c.Searcher.Prepare(q)
}

func (c countingSearcher) QueryWorkers(n int) search.Searcher {
	return countingSearcher{c.Searcher.QueryWorkers(n), c.prepares}
}

func (c countingSearcher) WithTable(t *table.Table) (search.Searcher, error) {
	s, err := c.Searcher.WithTable(t)
	if err != nil {
		return nil, err
	}
	return countingSearcher{s, c.prepares}, nil
}

// TestCacheOutcomesOnePerRequest pins the cache counters to one outcome a
// request: a degraded search probes the exact line and then the degraded
// one, revalidating either when it is older than the snapshot, and still
// counts one hit or one miss, so hits plus misses equal the searches that
// reached the cache, on /stats and on /metrics alike. Whatever it probes,
// a request encodes its query at most once: a plain hit never, every other
// path once.
func TestCacheOutcomesOnePerRequest(t *testing.T) {
	b := fixedLake()
	var prepares atomic.Int64
	s := countingSearcher{search.NewStarmie(b.Lake), &prepares}
	srv := New(dust.New(b.Lake, dust.WithTopTables(5), dust.WithSearcher(s)),
		WithDegradeThreshold(0.5), WithMaxInFlight(1), WithTimeout(10*time.Second))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	body := searchBody(t, b.Queries[0], 5)
	ask := func(step string, loaded, cached, degraded bool, epoch uint64, encodes int64) searchResponse {
		t.Helper()
		before := prepares.Load()
		var out searchResponse
		if loaded {
			out = searchUnderLoad(t, srv, ts.URL, body)
		} else {
			_, out = postSearch(t, ts.URL, body)
		}
		if out.Cached != cached || out.Degraded != degraded || out.Epoch != epoch {
			t.Fatalf("%s: cached=%v degraded=%v epoch %d, want %v/%v/%d", step, out.Cached, out.Degraded, out.Epoch, cached, degraded, epoch)
		}
		if n := prepares.Load() - before; n != encodes {
			t.Errorf("%s: %d query encodes, want %d", step, n, encodes)
		}
		return out
	}
	put := func(name string, src *table.Table) {
		t.Helper()
		tb, _ := json.Marshal(tableJSON{Headers: src.Headers(), Rows: rowsOf(src)})
		if resp, _ := doJSON(t, http.MethodPut, ts.URL+"/tables/"+name, tb); resp.StatusCode != http.StatusCreated {
			t.Fatalf("put %s: status %d", name, resp.StatusCode)
		}
	}

	degraded := ask("both lines miss: the degraded view computes", true, false, true, 0, 1).Tables
	ask("the exact line misses, the degraded one hits", true, true, true, 0, 0)
	ask("the exact view computes", false, false, false, 0, 1)
	ask("the exact line hits", false, true, false, 0, 0)
	ask("the exact line hits before the degrade decision", true, true, false, 0, 0)

	// A copy of the degraded answer's last table, named to sort after it,
	// ranks into the full answer (the degraded one is its prefix) but not
	// into the degraded one: under load, the exact line is outranked and
	// the degraded line revalidated, and the request counts one hit.
	put("zz_degraded_copy", b.Lake.Get(degraded[len(degraded)-1]))
	ask("the exact line outranked, the degraded one revalidated", true, true, true, 1, 1)
	ask("the exact line outranked: the exact view computes", false, false, false, 1, 1)
	// A copy of the degraded answer's first table, named to sort before
	// it, ranks into both answers.
	put("aaa_top_copy", b.Lake.Get(degraded[0]))
	ask("both lines outranked: the degraded view computes", true, false, true, 2, 1)

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Cache.Hits != 4 || st.Cache.Misses != 4 || st.Cache.Revalidated != 1 || st.Cache.Hits+st.Cache.Misses != st.Searches {
		t.Fatalf("cache %d hits (%d revalidated) + %d misses over %d searches, want 4 (1) + 4 = 8",
			st.Cache.Hits, st.Cache.Revalidated, st.Cache.Misses, st.Searches)
	}
	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"dust_cache_hits_total 4", "dust_cache_misses_total 4",
		`dust_cache_stale_total{outcome="outranked"} 4`, `dust_cache_stale_total{outcome="revalidated"} 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
}
