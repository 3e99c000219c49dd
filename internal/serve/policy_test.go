package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dust"
	"dust/internal/search"
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
// single admission slot held, a search degrades to the snapshot's ANN view
// instead of queueing — flagged in the response, the request log, the
// degraded counter, and /metrics — and the degraded result is cached under
// its own config tag. Once load clears, searches run exact again.
func TestDegradedModeUnderLoad(t *testing.T) {
	var sink lockedBuffer
	srv, ts, b := newTestServer(t,
		WithDegradeThreshold(0.5), WithMaxInFlight(1),
		WithTimeout(10*time.Second), WithRequestLog(&sink))
	if srv.Snapshot().degraded == nil {
		t.Fatal("degrade threshold set but the snapshot has no ANN view (PrepareANN failed?)")
	}
	body := searchBody(t, b.Queries[0], 5)

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

// TestShedWithRetryAfter pins the other overload branch: a pipeline already
// answering from its ANN plan has nothing cheaper to degrade to, so past the
// threshold the request is refused with 503 + Retry-After: 1 instead of
// queueing.
func TestShedWithRetryAfter(t *testing.T) {
	b := fixedLake()
	p := dust.New(b.Lake, dust.WithRetriever(search.ANN))
	srv := New(p, WithDegradeThreshold(0.5), WithMaxInFlight(1), WithTimeout(10*time.Second))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	if srv.Snapshot().degraded != nil {
		t.Fatal("ANN-mode pipeline unexpectedly produced a distinct degraded view")
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

// crossingRemoval returns the index in names of the first removal that
// leaves srv's served graph more than half dead. Tombstoning is
// deterministic, so a probe clone finds it.
func crossingRemoval(t *testing.T, srv *Server, names []string) int {
	t.Helper()
	probe := srv.Snapshot().Pipeline().Clone()
	probe.SetAutoCompact(false)
	cross := 0
	for ; cross < len(names); cross++ {
		if err := probe.RemoveTable(names[cross]); err != nil {
			t.Fatal(err)
		}
		if probe.MaintenanceStats().GraphDeletedFraction > search.RebuildThreshold {
			break
		}
	}
	if cross == 0 || cross == len(names) {
		t.Fatalf("crossing removal at %d of %d tables", cross, len(names))
	}
	return cross
}

// TestMaintenanceLoopCompacts pins compaction with no explicit trigger: an
// ANN server that sees only HTTP DELETEs, the last of which leaves its graph
// more than half dead, compacts on its own and then serves zero tombstones,
// with no further request and no Close.
func TestMaintenanceLoopCompacts(t *testing.T) {
	b := fixedLake()
	p := dust.New(b.Lake, dust.WithTopTables(5), dust.WithRetriever(search.ANN))
	srv := New(p)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	names := b.Lake.Names()
	for _, name := range names[:crossingRemoval(t, srv, names)+1] {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/tables/"+name, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delete %s: status %d", name, resp.StatusCode)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.compactions.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.compactions.Load() == 0 {
		t.Fatal("the crossing DELETE started no background compaction")
	}
	if st := srv.Snapshot().Pipeline().MaintenanceStats(); st.GraphDeletedFraction != 0 {
		t.Fatalf("deleted fraction %.2f after background compaction, want 0", st.GraphDeletedFraction)
	}
}

// TestMaintenanceCompactionUnderLoad is the compaction contract: no DELETE
// rebuilds the served ANN graph inline, a history that stays at or under
// half dead never compacts, and the DELETE that crosses it starts a
// background pass that, with no further request, swaps in a compacted clone
// at the same epoch while every response keeps its exact bytes. Run under
// -race in CI.
func TestMaintenanceCompactionUnderLoad(t *testing.T) {
	b := fixedLake()
	p := dust.New(b.Lake, dust.WithTopTables(5), dust.WithRetriever(search.ANN))
	srv := New(p, WithCacheCapacity(0), WithMaxInFlight(4))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	body := searchBody(t, b.Queries[0], 5)
	post := func(url string) []byte {
		resp, err := http.Post(url+"/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return nil
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("search status %d: %s", resp.StatusCode, buf.Bytes())
		}
		return buf.Bytes()
	}

	names := b.Lake.Names()
	cross := crossingRemoval(t, srv, names)

	// Every removal short of it, over HTTP while clients query, so the race
	// detector sees queries against both sides of each swap.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, name := range names[:cross] {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/tables/"+name, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				continue
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("delete %s: status %d", name, resp.StatusCode)
			}
		}
	}()
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				post(ts.URL)
			}
		}()
	}
	wg.Wait()
	if st := srv.Snapshot().Pipeline().MaintenanceStats(); srv.compactions.Load() != 0 ||
		st.GraphDeletedFraction == 0 || st.GraphDeletedFraction > search.RebuildThreshold {
		t.Fatalf("at or under half dead: %d compactions, deleted fraction %.3f; want 0 and the debt kept",
			srv.compactions.Load(), st.GraphDeletedFraction)
	}

	// The crossing removal: the snapshot it publishes still holds its
	// tombstones, so no rebuild ran inside the request.
	crossing, _, err := srv.mutate(func(p *dust.Pipeline) error { return p.RemoveTable(names[cross]) })
	if err != nil {
		t.Fatal(err)
	}
	if f := crossing.Pipeline().MaintenanceStats().GraphDeletedFraction; f <= search.RebuildThreshold {
		t.Fatalf("crossing DELETE published a deleted fraction of %.3f: it compacted inline", f)
	}
	// The body before the swap comes from a server over a copy of that
	// snapshot, which never compacts.
	ref := httptest.NewServer(New(crossing.Pipeline().Clone(), WithCacheCapacity(0)))
	t.Cleanup(ref.Close)
	before := post(ref.URL)

	var qwg sync.WaitGroup
	for c := 0; c < 3; c++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for i := 0; i < 5; i++ {
				if got := post(ts.URL); !bytes.Equal(got, before) {
					t.Errorf("query racing compaction: body differs:\n%s\nwant:\n%s", got, before)
				}
			}
		}()
	}
	srv.Close() // waits for the pass
	qwg.Wait()

	st := srv.Snapshot().Pipeline().MaintenanceStats()
	if got := srv.compactions.Load(); got != 1 || st.GraphDeletedFraction != 0 || st.GraphNodes != st.GraphLive {
		t.Fatalf("after the pass: %d compactions, stats %+v; want 1 and zero tombstones", got, st)
	}
	if epoch := srv.Snapshot().Epoch(); epoch != crossing.Epoch() {
		t.Fatalf("compaction moved the epoch %d -> %d", crossing.Epoch(), epoch)
	}
	if after := post(ts.URL); !bytes.Equal(before, after) {
		t.Fatalf("compaction changed response bytes:\nbefore: %s\nafter:  %s", before, after)
	}
	if !strings.Contains(scrapeMetrics(t, ts.URL), "dust_maintenance_compactions_total 1\n") {
		t.Error("exposition missing dust_maintenance_compactions_total 1")
	}
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK || stats.Compactions != 1 {
		t.Fatalf("stats compactions = %d (code %d), want 1", stats.Compactions, code)
	}
}
