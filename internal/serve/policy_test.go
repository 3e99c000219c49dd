package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// TestDegradedModeUnderLoad pins cost-aware admission end to end: with the
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
// threshold the request is refused with 503 + Retry-After instead of
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
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs > 60 {
		t.Fatalf("Retry-After %q, want an integer in [1, 60]", ra)
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

// TestCheapQueriesBypassDegradation pins the cost-estimate bypass: once
// the EWMA knows searches of this shape are cheap, they are admitted
// exactly even past the load threshold.
func TestCheapQueriesBypassDegradation(t *testing.T) {
	srv, _, _ := newTestServer(t, WithDegradeThreshold(0.5), WithMaxInFlight(1))
	// Pretend observed searches were ~1ns per unit: any realistic query
	// estimates far under the 1ms floor.
	srv.observeCost(1, time.Nanosecond)
	if !srv.cheap(100) {
		t.Fatalf("estCost(100) = %.0fns judged not cheap", srv.estCostNS(100))
	}
	// And an expensive history keeps degradation on.
	srv2, _, _ := newTestServer(t, WithDegradeThreshold(0.5), WithMaxInFlight(1))
	srv2.observeCost(1, 50*time.Millisecond)
	if srv2.cheap(100) {
		t.Fatalf("estCost(100) = %.0fns judged cheap", srv2.estCostNS(100))
	}
	// Unknown cost is never cheap: the first overloaded requests degrade.
	srv3, _, _ := newTestServer(t, WithDegradeThreshold(0.5), WithMaxInFlight(1))
	if srv3.cheap(100) {
		t.Fatal("unknown cost judged cheap")
	}
}

// TestCacheDisabledLabelsNone pins the documented cache-label contract:
// with caching disabled, /search observations carry cache="none" — not a
// fictitious "miss" against a cache that does not exist.
func TestCacheDisabledLabelsNone(t *testing.T) {
	var sink lockedBuffer
	_, ts, b := newTestServer(t, WithCacheCapacity(0), WithRequestLog(&sink))
	if resp, out := postSearch(t, ts.URL, searchBody(t, b.Queries[0], 3)); resp.StatusCode != http.StatusOK || out.Cached {
		t.Fatalf("uncached search status %d cached=%v", resp.StatusCode, out.Cached)
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

// TestMaintenanceCompactionUnderLoad is the rebuild-under-load contract:
// removals push the served ANN graph's tombstone fraction past the
// maintenance threshold while queries are in flight, no inline rebuild
// happens (mutations stay O(delta) with a maintainer attached), and the
// background compaction swap preserves the epoch and the exact bytes of
// every response. Run under -race in CI.
func TestMaintenanceCompactionUnderLoad(t *testing.T) {
	b := fixedLake()
	p := dust.New(b.Lake, dust.WithTopTables(5), dust.WithRetriever(search.ANN))
	// An hour-long interval keeps the timer out of the test; passes are
	// driven explicitly via maintain() so the swap is deterministic.
	srv := New(p,
		WithMaintenance(time.Hour), WithMaintenanceThreshold(0.25),
		WithCacheCapacity(0), WithMaxInFlight(4), WithTimeout(30*time.Second))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	query := b.Queries[0]
	body := searchBody(t, query, 5)
	post := func() (int, []byte) {
		resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	// Remove a third of the lake over HTTP while clients query: enough
	// tombstones to cross the 0.25 threshold, concurrently enough that the
	// race detector sees queries against both sides of each swap.
	names := b.Lake.Names()
	doomed := names[:len(names)/3]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, name := range doomed {
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
				if status, _ := post(); status != http.StatusOK {
					t.Errorf("query under churn: status %d", status)
				}
			}
		}()
	}
	wg.Wait()

	// With the maintainer attached, none of those removals may have
	// rebuilt inline: the tombstone debt must still be visible.
	st := srv.Snapshot().Pipeline().MaintenanceStats()
	if st.GraphDeletedFraction < 0.25 {
		t.Fatalf("graph deleted fraction %.2f after removing %d/%d tables — a mutation compacted inline",
			st.GraphDeletedFraction, len(doomed), len(names))
	}

	epochBefore := srv.Snapshot().Epoch()
	statusBefore, before := post()
	if statusBefore != http.StatusOK {
		t.Fatalf("pre-compaction search status %d", statusBefore)
	}

	// Compact while queries are in flight against the served snapshot.
	var qwg sync.WaitGroup
	for c := 0; c < 3; c++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for i := 0; i < 5; i++ {
				if status, got := post(); status != http.StatusOK || !bytes.Equal(got, before) {
					t.Errorf("query racing compaction: status %d, body identical %v", status, bytes.Equal(got, before))
				}
			}
		}()
	}
	if !srv.maintain() {
		t.Fatal("maintain() did no work above the threshold")
	}
	qwg.Wait()

	if got := srv.maintRuns.Load(); got != 1 {
		t.Fatalf("compaction counter = %d, want 1", got)
	}
	if epoch := srv.Snapshot().Epoch(); epoch != epochBefore {
		t.Fatalf("compaction moved the epoch %d -> %d", epochBefore, epoch)
	}
	st = srv.Snapshot().Pipeline().MaintenanceStats()
	if st.GraphDeletedFraction != 0 || st.GraphNodes != st.GraphLive {
		t.Fatalf("post-compaction stats %+v, want zero tombstones", st)
	}
	// Below the threshold now: another pass must be a no-op.
	if srv.maintain() {
		t.Fatal("maintain() compacted a clean index")
	}

	statusAfter, after := post()
	if statusAfter != http.StatusOK {
		t.Fatalf("post-compaction search status %d", statusAfter)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("compaction changed response bytes:\nbefore: %s\nafter:  %s", before, after)
	}

	text := scrapeMetrics(t, ts.URL)
	if !strings.Contains(text, "dust_maintenance_compactions_total 1\n") {
		t.Error("exposition missing dust_maintenance_compactions_total 1")
	}
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK || stats.Compactions != 1 {
		t.Fatalf("stats compactions = %d (code %d), want 1", stats.Compactions, code)
	}
}

// TestMaintenanceLoopCompacts covers the timer-driven path WithMaintenance
// actually ships: a short interval notices accrued tombstones and compacts
// without any explicit trigger.
func TestMaintenanceLoopCompacts(t *testing.T) {
	b := fixedLake()
	p := dust.New(b.Lake, dust.WithTopTables(5), dust.WithRetriever(search.ANN))
	srv := New(p, WithMaintenance(10*time.Millisecond), WithMaintenanceThreshold(0.25))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	names := b.Lake.Names()
	for _, name := range names[:len(names)/3] {
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
	for srv.maintRuns.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.maintRuns.Load() == 0 {
		t.Fatal("maintenance loop never compacted")
	}
	st := srv.Snapshot().Pipeline().MaintenanceStats()
	if st.GraphDeletedFraction != 0 {
		t.Fatalf("deleted fraction %.2f after background compaction, want 0", st.GraphDeletedFraction)
	}
}
