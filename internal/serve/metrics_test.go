package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dust"
	"dust/internal/search"
	"dust/internal/vector"
)

// postBody posts body to url with the given content type and returns the
// response plus its drained body.
func postBody(t *testing.T, method, url, contentType, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestStatusCodeContract pins the error contract of the mutating and
// searching endpoints: the right status per failure class, and every
// non-2xx body a JSON object with a non-empty error field.
func TestStatusCodeContract(t *testing.T) {
	_, ts, b := newTestServer(t, WithMaxBodyBytes(1024))
	existing := b.Lake.Tables()[0].Name
	bigJSON := fmt.Sprintf(`{"query":{"headers":["a"],"rows":[["%s"]]},"k":3}`,
		strings.Repeat("x", 4096))
	bigCSV := "a,b\n" + strings.Repeat("xxxx,yyyy\n", 512)

	cases := []struct {
		name        string
		method      string
		path        string
		contentType string
		body        string
		status      int
		wantSubstr  string
	}{
		{"search json over cap", "POST", "/search", "application/json",
			bigJSON, http.StatusRequestEntityTooLarge, "1024-byte cap"},
		{"search csv over cap", "POST", "/search", "text/csv",
			bigCSV, http.StatusRequestEntityTooLarge, "1024-byte cap"},
		{"put csv over cap", "PUT", "/tables/newt", "text/csv",
			bigCSV, http.StatusRequestEntityTooLarge, "1024-byte cap"},
		{"put json over cap", "PUT", "/tables/newt", "application/json",
			fmt.Sprintf(`{"headers":["a"],"rows":[["%s"]]}`, strings.Repeat("x", 4096)),
			http.StatusRequestEntityTooLarge, "1024-byte cap"},
		{"put json trailing data", "PUT", "/tables/newt", "application/json",
			`{"headers":["a"],"rows":[["1"]]} {"headers":["b"]}`, http.StatusBadRequest, "trailing data"},
		{"put json padded past the cap", "PUT", "/tables/newt", "application/json",
			`{"headers":["a"],"rows":[["1"]]}` + strings.Repeat(" ", 4096),
			http.StatusRequestEntityTooLarge, "1024-byte cap"},
		{"search malformed json", "POST", "/search", "application/json",
			`{"query": {`, http.StatusBadRequest, "bad request body"},
		{"put malformed csv names cause", "PUT", "/tables/newt", "text/csv",
			"a,b\n\"unterminated", http.StatusBadRequest, "bad csv body: "},
		{"put empty csv body", "PUT", "/tables/newt", "text/csv",
			"", http.StatusBadRequest, "empty csv body"},
		{"put duplicate table", "PUT", "/tables/" + existing, "application/json",
			`{"headers":["a"],"rows":[["1"]]}`, http.StatusConflict, "already in the lake"},
		{"delete missing table", "DELETE", "/tables/no-such-table", "application/json",
			"", http.StatusNotFound, "no table"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postBody(t, tc.method, ts.URL+tc.path, tc.contentType, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("error content type %q, want application/json", ct)
			}
			var e errorJSON
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q not JSON with error field: %v", body, err)
			}
			if !strings.Contains(e.Error, tc.wantSubstr) {
				t.Fatalf("error %q missing %q", e.Error, tc.wantSubstr)
			}
		})
	}
}

// TestRejectedVsCanceled pins the accounting split at admission: a request
// shed by the server-side deadline counts as rejected, a client that goes
// away while parked counts as canceled, and /stats reports both.
func TestRejectedVsCanceled(t *testing.T) {
	srv, ts, b := newTestServer(t,
		WithMaxInFlight(1), WithTimeout(150*time.Millisecond), WithCacheCapacity(0))
	body := searchBody(t, b.Queries[0], 3)

	// Occupy the only slot so every search parks at admission.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()

	// Server-side deadline fires while parked: 503, rejected++.
	resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated status %d, want 503", resp.StatusCode)
	}
	if got := srv.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	if got := srv.canceled.Load(); got != 0 {
		t.Fatalf("canceled = %d, want 0 after deadline shed", got)
	}

	// Client disconnects while parked: canceled++, rejected unchanged.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/search", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("canceled request unexpectedly got a response")
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.canceled.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.canceled.Load(); got != 1 {
		t.Fatalf("canceled = %d, want 1", got)
	}
	if got := srv.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want still 1", got)
	}

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Rejected != 1 || st.Canceled != 1 {
		t.Fatalf("stats rejected=%d canceled=%d, want 1 and 1", st.Rejected, st.Canceled)
	}
}

// sampleLine matches one Prometheus text-format sample.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (-?[0-9+].*|NaN)$`)

// scrapeMetrics GETs /metrics, checks the content type, and returns the
// exposition text.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// sampleValue returns the value of the exposition's sample line for series
// (family name plus label set, as exposed), failing the test when the series
// is not exposed.
func sampleValue(t *testing.T, text, series string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("exposition missing %s", series)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("%s = %q: %v", series, m[1], err)
	}
	return v
}

// scanTablesTotal sums dust_search_scan_tables_total over its four
// outcomes, failing the test when one is not exposed.
func scanTablesTotal(t *testing.T, text string) int {
	t.Helper()
	total := 0
	for _, outcome := range []string{"coded", "bounded", "greedy", "matched"} {
		total += int(sampleValue(t, text, `dust_search_scan_tables_total{outcome="`+outcome+`"}`))
	}
	return total
}

// TestMetricsExposition drives a miss then a hit through /search and pins
// the exposed samples: request counters and latency histograms advance and
// split by cache outcome, stage histograms and scan outcome counts record
// served searches only, and every line parses as Prometheus text format.
func TestMetricsExposition(t *testing.T) {
	_, ts, b := newTestServer(t)
	body := searchBody(t, b.Queries[0], 3)
	if resp, _ := postSearch(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("miss search status %d", resp.StatusCode)
	}
	if resp, out := postSearch(t, ts.URL, body); resp.StatusCode != http.StatusOK || !out.Cached {
		t.Fatalf("hit search status %d cached %v", resp.StatusCode, out.Cached)
	}

	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`dust_http_requests_total{endpoint="/search",class="2xx"} 2`,
		`dust_http_request_seconds_count{endpoint="/search",cache="miss",class="2xx"} 1`,
		`dust_http_request_seconds_count{endpoint="/search",cache="hit",class="2xx"} 1`,
		`dust_search_stage_seconds_count{stage="encode"} 1`,
		`dust_search_stage_seconds_count{stage="retrieve"} 1`,
		`dust_search_stage_seconds_count{stage="score"} 1`,
		`dust_search_stage_seconds_count{stage="align"} 1`,
		`dust_search_stage_seconds_count{stage="diversify"} 1`,
		`dust_admission_wait_seconds_count 1`,
		`dust_searches_total 2`,
		`dust_cache_hits_total 1`,
		`dust_cache_misses_total 1`,
		`dust_in_flight 0`,
		`dust_epoch 0`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The one served search scanned every lake table exactly once; the
	// cache hit scanned none.
	if got, want := scanTablesTotal(t, text), b.Lake.Len(); got != want {
		t.Errorf("scan outcomes sum to %d tables, want the lake's %d", got, want)
	}
	// The encode kernel's counts are the process's: the index build and the
	// one served search have both derived vectors and read some back.
	for _, result := range []string{"hit", "miss"} {
		if n := sampleValue(t, text, `dust_embed_token_vectors_total{result="`+result+`"}`); n <= 0 {
			t.Errorf("dust_embed_token_vectors_total{result=%q} = %v, want a positive count", result, n)
		}
	}
	// The tables' bytes: at least the big table, at most it plus a spare per
	// other processor, each with its tags and scratch.
	bigTable, spare := float64(2<<20), float64(512<<10)
	maxBytes := 1.1 * (bigTable + spare*float64(runtime.GOMAXPROCS(0)-1))
	if n := sampleValue(t, text, "dust_embed_token_vector_bytes"); n < bigTable || n > maxBytes {
		t.Errorf("dust_embed_token_vector_bytes = %v, want within [%v, %v]", n, bigTable, maxBytes)
	}

	// The kernel body this process selected is named, as one series.
	if n := sampleValue(t, text, `dust_cosine_kernel{kernel="`+vector.CosineKernel()+`"}`); n != 1 {
		t.Errorf("dust_cosine_kernel{kernel=%q} = %v, want 1", vector.CosineKernel(), n)
	}

	// The alignment memo's counts are the process's too: all four results
	// are exposed, the served search embedded lake columns (each a hit or a
	// miss), and the bytes held stay within the memo's constant bound.
	embedded := 0.0
	for _, result := range []string{"hit", "miss", "unstorable", "evicted"} {
		n := sampleValue(t, text, `dust_align_column_vectors_total{result="`+result+`"}`)
		if result == "hit" || result == "miss" {
			embedded += n
		}
	}
	if embedded <= 0 {
		t.Error("dust_align_column_vectors_total counts no hit and no miss after a served search")
	}
	if n := sampleValue(t, text, "dust_align_column_vector_bytes"); n <= 0 || n > 8<<20 {
		t.Errorf("dust_align_column_vector_bytes = %v, want within (0, 8 MiB]", n)
	}

	// Every line must be a HELP/TYPE comment or a well-formed sample, and
	// every sample's family must have been announced by a TYPE comment.
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if !typed[family] && !typed[name] {
			t.Fatalf("sample %q has no TYPE comment", name)
		}
	}
	// Every family this server exports is documented for operators.
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for family := range typed {
		if !strings.Contains(string(doc), "`"+family+"`") {
			t.Errorf("family %s is not named in docs/OPERATIONS.md", family)
		}
	}
}

// TestIndexBytesSurfaces pins the index-footprint observability: an
// exact-mode pipeline has no graph (gauge absent, /stats reports 0 bytes),
// an ANN pipeline exports dust_index_bytes{shard="all"} equal to /stats,
// and a sharded pipeline adds per-shard samples that sum to the "all" row,
// beside per-shard table counts that sum to the lake.
func TestIndexBytesSurfaces(t *testing.T) {
	b := fixedLake()
	serveFor := func(opts ...dust.Option) (int64, string) {
		t.Helper()
		ts := httptest.NewServer(New(dust.New(b.Lake, opts...)))
		t.Cleanup(ts.Close)
		var st StatsResponse
		if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
			t.Fatalf("stats status %d", code)
		}
		return st.Index.Bytes, scrapeMetrics(t, ts.URL)
	}

	n, text := serveFor()
	if strings.Contains(text, "dust_index_bytes{") || n != 0 {
		t.Errorf("exact-mode pipeline: /stats index bytes %d, exposition:\n%s", n, text)
	}
	n, text = serveFor(dust.WithRetriever(search.ANN))
	if all := sampleValue(t, text, `dust_index_bytes{shard="all"}`); n <= 0 || all != float64(n) {
		t.Errorf("ANN pipeline: /stats index bytes %d, gauge %v; want equal and positive", n, all)
	}
	_, text = serveFor(dust.WithRetriever(search.ANN), dust.WithShards(2))
	parts := sampleValue(t, text, `dust_index_bytes{shard="0"}`) + sampleValue(t, text, `dust_index_bytes{shard="1"}`)
	if all := sampleValue(t, text, `dust_index_bytes{shard="all"}`); parts != all || all <= 0 {
		t.Errorf("sharded gauge: shards sum to %v, all = %v", parts, all)
	}
	tables := sampleValue(t, text, `dust_shard_tables{shard="0"}`) + sampleValue(t, text, `dust_shard_tables{shard="1"}`)
	if tables != float64(b.Lake.Len()) {
		t.Errorf("dust_shard_tables sum to %v, the lake holds %d", tables, b.Lake.Len())
	}
}

// lockedBuffer is a goroutine-safe log sink for tests.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestLog pins the structured request-log schema: one JSON line per
// request, stage timings on served searches, no search-only fields on
// other endpoints.
func TestRequestLog(t *testing.T) {
	var sink lockedBuffer
	_, ts, b := newTestServer(t, WithRequestLog(&sink))
	body := searchBody(t, b.Queries[0], 3)
	postSearch(t, ts.URL, body) // miss
	postSearch(t, ts.URL, body) // hit
	getJSON(t, ts.URL+"/stats", nil)
	postSearch(t, ts.URL, searchBody(t, b.Queries[0], -2)) // bad k: 400

	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d log lines, want 4: %q", len(lines), lines)
	}
	var miss, hit, stats, badK requestLogLine
	for i, dst := range []*requestLogLine{&miss, &hit, &stats, &badK} {
		if err := json.Unmarshal([]byte(lines[i]), dst); err != nil {
			t.Fatalf("log line %d not JSON: %v (%s)", i, err, lines[i])
		}
	}
	if badK.Status != http.StatusBadRequest || !strings.Contains(badK.Error, "k must be positive") {
		t.Fatalf("bad-k line has status %d error %q, want a 400 naming the bad k", badK.Status, badK.Error)
	}
	if miss.Endpoint != "/search" || miss.Status != 200 || miss.Cache != "miss" ||
		miss.K != 3 || miss.Epoch == nil || miss.Stages == nil {
		t.Fatalf("miss line wrong: %+v", miss)
	}
	if miss.Stages.Encode <= 0 || miss.Stages.Align <= 0 {
		t.Fatalf("miss line has no encode or no align time: %+v", miss.Stages)
	}
	if !strings.Contains(lines[0], `"align":`) {
		t.Fatalf("miss line's stages_ms carries no align field: %s", lines[0])
	}
	if hit.Cache != "hit" || hit.Stages != nil {
		t.Fatalf("hit line wrong: %+v", hit)
	}
	if stats.Endpoint != "/stats" || stats.Cache != "" || stats.Epoch != nil || stats.Stages != nil {
		t.Fatalf("stats line wrong: %+v", stats)
	}
	if _, err := time.Parse(time.RFC3339Nano, miss.Time); err != nil {
		t.Fatalf("log timestamp %q: %v", miss.Time, err)
	}
}

// TestWriteJSONFallbackIsJSON pins the encode-failure path of writeJSON:
// even when the response value cannot be marshaled, the body must honor
// the errorJSON contract rather than fall back to text/plain.
func TestWriteJSONFallbackIsJSON(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"bad": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("fallback status %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("fallback content type %q, want application/json", ct)
	}
	var e errorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("fallback body %q not errorJSON: %v", rec.Body.String(), err)
	}
}
