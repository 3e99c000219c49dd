package serve

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dust"
	"dust/internal/datagen"
	"dust/internal/model"
	"dust/internal/table"
	"dust/internal/vector"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedLake generates the deterministic seed lake every API test runs
// against (and that the golden response is pinned to).
func fixedLake() *datagen.Benchmark {
	return datagen.Generate("serve-test", datagen.Config{
		Seed: 81, Domains: 4, TablesPerBase: 5, BaseRows: 60, MinRows: 15, MaxRows: 30,
	})
}

func newTestServer(t *testing.T, opts ...Option) (*Server, *httptest.Server, *datagen.Benchmark) {
	t.Helper()
	b := fixedLake()
	p := dust.New(b.Lake, dust.WithTopTables(5))
	srv := New(p, opts...)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, b
}

func rowsOf(t *table.Table) [][]string {
	out := make([][]string, t.NumRows())
	for i := range out {
		out[i] = t.Row(i)
	}
	return out
}

func searchBody(t *testing.T, q *table.Table, k int) []byte {
	t.Helper()
	body, err := json.Marshal(searchRequest{Query: tableJSON{Name: q.Name, Headers: q.Headers(), Rows: rowsOf(q)}, K: k})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postSearch(t *testing.T, url string, body []byte) (*http.Response, searchResponse) {
	t.Helper()
	resp, err := http.Post(url+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out searchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode search response: %v", err)
		}
	}
	resp.Body.Close()
	return resp, out
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func doJSON(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestHealthz(t *testing.T) {
	_, ts, b := newTestServer(t)
	var out struct {
		Status string `json:"status"`
		Epoch  uint64 `json:"epoch"`
		Tables int    `json:"tables"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &out); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if out.Status != "ok" || out.Epoch != 0 || out.Tables != b.Lake.Len() {
		t.Fatalf("healthz = %+v, want ok/0/%d", out, b.Lake.Len())
	}
}

func TestSearchEndpoint(t *testing.T) {
	_, ts, b := newTestServer(t)
	q := b.Queries[0]
	resp, out := postSearch(t, ts.URL, searchBody(t, q, 7))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	if out.K != 7 || out.Cached || out.Epoch != 0 {
		t.Fatalf("search meta = k %d cached %v epoch %d, want 7/false/0", out.K, out.Cached, out.Epoch)
	}
	if len(out.Tuples.Rows) == 0 || len(out.Tuples.Rows) > 7 {
		t.Fatalf("returned %d tuples, want 1..7", len(out.Tuples.Rows))
	}
	if len(out.Provenance) != len(out.Tuples.Rows) {
		t.Fatalf("provenance %d entries for %d tuples", len(out.Provenance), len(out.Tuples.Rows))
	}
	if strings.Join(out.Tuples.Headers, "|") != strings.Join(q.Headers(), "|") {
		t.Fatalf("result headers %v, want query schema %v", out.Tuples.Headers, q.Headers())
	}
	if len(out.Tables) == 0 || out.Pool <= 0 {
		t.Fatalf("tables %v pool %d", out.Tables, out.Pool)
	}
}

func TestSearchCSVBody(t *testing.T) {
	_, ts, b := newTestServer(t)
	q := b.Queries[0]
	var csvBody bytes.Buffer
	cw := csv.NewWriter(&csvBody)
	_ = cw.Write(q.Headers())
	for _, row := range rowsOf(q) {
		_ = cw.Write(row)
	}
	cw.Flush()
	resp, err := http.Post(ts.URL+"/search?k=5", "text/csv", &csvBody)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv search status %d", resp.StatusCode)
	}
	var out searchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.K != 5 || len(out.Tuples.Rows) == 0 {
		t.Fatalf("csv search k %d rows %d", out.K, len(out.Tuples.Rows))
	}
}

func TestSearchErrorPaths(t *testing.T) {
	_, ts, b := newTestServer(t)
	q := b.Queries[0]
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{"query": {`, http.StatusBadRequest},
		{"unknown param", `{"query":{"headers":["a"],"rows":[]},"k":3,"shuffle":true}`, http.StatusBadRequest},
		{"trailing garbage", `{"query":{"headers":["a"],"rows":[]},"k":3} extra`, http.StatusBadRequest},
		{"no headers", `{"query":{"headers":[],"rows":[]},"k":3}`, http.StatusBadRequest},
		{"ragged row", `{"query":{"headers":["a","b"],"rows":[["1"]]},"k":3}`, http.StatusBadRequest},
		{"negative k", string(searchBody(t, q, -2)), http.StatusBadRequest},
		{"k over cap", string(searchBody(t, q, maxK+1)), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			var e errorJSON
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("error body not JSON with error field: %v", err)
			}
		})
	}

	// Oversized bodies are rejected with 413 (not a bogus parse 400), and
	// the message names the configured cap. The body must be valid JSON up
	// to the cap so the failure can only come from the cap itself.
	t.Run("body over cap", func(t *testing.T) {
		_, bigTS, _ := newTestServer(t, WithMaxBodyBytes(1024))
		big := fmt.Sprintf(`{"query":{"headers":["a"],"rows":[["%s"]]},"k":3}`,
			strings.Repeat("x", 4096))
		resp, err := http.Post(bigTS.URL+"/search", "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized body status %d, want 413", resp.StatusCode)
		}
		var e errorJSON
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("413 body not JSON: %v", err)
		}
		if !strings.Contains(e.Error, "1024-byte cap") {
			t.Fatalf("413 message %q does not name the cap", e.Error)
		}
	})

	// Wrong method is the mux's 405.
	resp, err := http.Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /search status %d, want 405", resp.StatusCode)
	}
}

func TestTablesEndpoints(t *testing.T) {
	_, ts, b := newTestServer(t)
	var list struct {
		Epoch  uint64          `json:"epoch"`
		Tables []tableInfoJSON `json:"tables"`
	}
	if code := getJSON(t, ts.URL+"/tables", &list); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(list.Tables) != b.Lake.Len() {
		t.Fatalf("listed %d tables, want %d", len(list.Tables), b.Lake.Len())
	}

	extra := b.Lake.Tables()[0].Clone("zz_put_extra")
	body, _ := json.Marshal(tableJSON{Headers: extra.Headers(), Rows: rowsOf(extra)})

	resp, out := doJSON(t, http.MethodPut, ts.URL+"/tables/zz_put_extra", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put status %d: %s", resp.StatusCode, out)
	}
	var mut mutationResponse
	if err := json.Unmarshal(out, &mut); err != nil || mut.Epoch != 1 || mut.Tables != b.Lake.Len()+1 {
		t.Fatalf("put response %s (err %v), want epoch 1, %d tables", out, err, b.Lake.Len()+1)
	}

	// Duplicate PUT conflicts.
	resp, _ = doJSON(t, http.MethodPut, ts.URL+"/tables/zz_put_extra", body)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate put status %d, want 409", resp.StatusCode)
	}
	// Malformed body.
	resp, _ = doJSON(t, http.MethodPut, ts.URL+"/tables/zz_other", []byte(`{"headers": [}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad put body status %d, want 400", resp.StatusCode)
	}

	resp, out = doJSON(t, http.MethodDelete, ts.URL+"/tables/zz_put_extra", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d: %s", resp.StatusCode, out)
	}
	if err := json.Unmarshal(out, &mut); err != nil || mut.Epoch != 2 || mut.Tables != b.Lake.Len() {
		t.Fatalf("delete response %s, want epoch 2, %d tables", out, b.Lake.Len())
	}
	// Deleting an absent table 404s.
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/tables/zz_put_extra", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete absent status %d, want 404", resp.StatusCode)
	}
}

// TestGoldenSearchResponse pins the full JSON body for a fixed seed lake
// and query; run with -update to regenerate after an intentional format or
// ranking change.
func TestGoldenSearchResponse(t *testing.T) {
	_, ts, b := newTestServer(t)
	resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(searchBody(t, b.Queries[0], 5)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, buf.Bytes())
	}
	golden := filepath.Join("testdata", "golden_search.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("served response differs from %s:\ngot:  %s\nwant: %s", golden, buf.Bytes(), want)
	}
}

// TestServeEquivalence pins the served TopK bit-identical to a direct
// Pipeline.Search over the same lake and config.
func TestServeEquivalence(t *testing.T) {
	b := fixedLake()
	p := dust.New(b.Lake, dust.WithTopTables(5))
	srv := New(p)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, q := range b.Queries[:2] {
		want, err := p.Search(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		resp, out := postSearch(t, ts.URL, searchBody(t, q, 8))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search status %d", resp.StatusCode)
		}
		if strings.Join(out.Tables, "|") != strings.Join(want.UnionableTables, "|") {
			t.Fatalf("%s: served tables %v, want %v", q.Name, out.Tables, want.UnionableTables)
		}
		if len(out.Tuples.Rows) != want.Tuples.NumRows() {
			t.Fatalf("%s: served %d tuples, want %d", q.Name, len(out.Tuples.Rows), want.Tuples.NumRows())
		}
		for i, row := range out.Tuples.Rows {
			if strings.Join(row, "\x1f") != strings.Join(want.Tuples.Row(i), "\x1f") {
				t.Fatalf("%s: tuple %d = %v, want %v", q.Name, i, row, want.Tuples.Row(i))
			}
			if out.Provenance[i].Table != want.Provenance[i].Table || out.Provenance[i].Row != want.Provenance[i].Row {
				t.Fatalf("%s: provenance %d = %+v, want %+v", q.Name, i, out.Provenance[i], want.Provenance[i])
			}
		}
		if out.Pool != want.Unioned.NumRows() {
			t.Fatalf("%s: pool %d, want %d", q.Name, out.Pool, want.Unioned.NumRows())
		}
	}
}

func TestCacheHitAndEpochInvalidation(t *testing.T) {
	_, ts, b := newTestServer(t)
	q := b.Queries[0]
	body := searchBody(t, q, 5)

	_, first := postSearch(t, ts.URL, body)
	if first.Cached {
		t.Fatal("first search claims cached")
	}
	_, second := postSearch(t, ts.URL, body)
	if !second.Cached {
		t.Fatal("second identical search not served from cache")
	}
	if second.Epoch != first.Epoch {
		t.Fatalf("cached epoch %d, want %d", second.Epoch, first.Epoch)
	}
	// Same content under a different query name shares the fingerprint.
	renamed := q.Clone("renamed_query")
	_, third := postSearch(t, ts.URL, searchBody(t, renamed, 5))
	if !third.Cached {
		t.Fatal("renamed identical query not served from cache")
	}
	// Different k is a different key.
	_, diffK := postSearch(t, ts.URL, searchBody(t, q, 6))
	if diffK.Cached {
		t.Fatal("different k served from cache")
	}

	// A mutation bumps the epoch; the old entry must never resurface.
	extra := b.Lake.Tables()[0].Clone("zz_cache_extra")
	tb, _ := json.Marshal(tableJSON{Headers: extra.Headers(), Rows: rowsOf(extra)})
	resp, _ := doJSON(t, http.MethodPut, ts.URL+"/tables/zz_cache_extra", tb)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put status %d", resp.StatusCode)
	}
	_, after := postSearch(t, ts.URL, body)
	if after.Cached {
		t.Fatal("post-mutation search served a stale-epoch cache entry")
	}
	if after.Epoch != first.Epoch+1 {
		t.Fatalf("post-mutation epoch %d, want %d", after.Epoch, first.Epoch+1)
	}
	_, afterHit := postSearch(t, ts.URL, body)
	if !afterHit.Cached || afterHit.Epoch != after.Epoch {
		t.Fatalf("repeat at new epoch: cached %v epoch %d, want true/%d", afterHit.Cached, afterHit.Epoch, after.Epoch)
	}

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Cache.Hits != 3 || st.Cache.Misses != 3 {
		t.Fatalf("cache stats %d hits / %d misses, want 3/3", st.Cache.Hits, st.Cache.Misses)
	}
	if st.Mutations != 1 || st.Searches != 6 {
		t.Fatalf("stats mutations %d searches %d, want 1/6", st.Mutations, st.Searches)
	}
}

// TestCachedBytesIdenticalToLive pins the cache to serving byte-identical
// content: a hit's body differs from the miss's only in the cached flag,
// even for data that JSON's default HTML escaping would rewrite.
func TestCachedBytesIdenticalToLive(t *testing.T) {
	if got, err := marshalJSON(map[string]string{"v": "a<b&c>d"}); err != nil || !bytes.Contains(got, []byte("a<b&c>d")) {
		t.Fatalf("marshalJSON HTML-escapes payloads: %s (err %v)", got, err)
	}

	_, ts, b := newTestServer(t)
	body := searchBody(t, b.Queries[0], 5)
	post := func() []byte {
		resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	live := post()
	cached := post()
	want := bytes.Replace(live, []byte(`"cached":false`), []byte(`"cached":true`), 1)
	if !bytes.Equal(cached, want) {
		t.Fatalf("cached body diverges from live body beyond the cached flag:\nlive:   %s\ncached: %s", live, cached)
	}
}

// gateEncoder blocks every EncodeTuple call until released, pinning a
// search mid-flight. It deliberately does not implement the batch surface.
type gateEncoder struct {
	started chan struct{} // closed when the first encode begins
	release chan struct{} // close to let encodes proceed
	once    sync.Once
}

func (g *gateEncoder) Name() string { return "gate" }

func (g *gateEncoder) EncodeTuple(headers, values []string) vector.Vec {
	g.once.Do(func() { close(g.started) })
	<-g.release
	v := make(vector.Vec, 4)
	v[0] = 1
	return v
}

// TestSnapshotSwapDuringSlowQuery pins the reader/mutator contract: a
// mutation completes and publishes a new epoch while a query is pinned
// mid-embedding, and the pinned query still finishes on the snapshot it
// started with.
func TestSnapshotSwapDuringSlowQuery(t *testing.T) {
	b := fixedLake()
	gate := &gateEncoder{started: make(chan struct{}), release: make(chan struct{})}
	p := dust.New(b.Lake, dust.WithTopTables(5), dust.WithTupleEncoder(gate))
	srv := New(p, WithTimeout(30*time.Second), WithMaxInFlight(4))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	q := b.Queries[0]
	type result struct {
		status int
		out    searchResponse
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(searchBody(t, q, 5)))
		if err != nil {
			done <- result{status: -1}
			return
		}
		defer resp.Body.Close()
		var out searchResponse
		_ = json.NewDecoder(resp.Body).Decode(&out)
		done <- result{status: resp.StatusCode, out: out}
	}()

	select {
	case <-gate.started:
	case <-time.After(10 * time.Second):
		t.Fatal("slow query never reached the embedding stage")
	}

	// Mutate while the query is pinned: the swap must complete promptly —
	// readers never block mutators.
	extra := b.Lake.Tables()[0].Clone("zz_swap_extra")
	tb, _ := json.Marshal(tableJSON{Headers: extra.Headers(), Rows: rowsOf(extra)})
	swapStart := time.Now()
	resp, out := doJSON(t, http.MethodPut, ts.URL+"/tables/zz_swap_extra", tb)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put during slow query: status %d: %s", resp.StatusCode, out)
	}
	if elapsed := time.Since(swapStart); elapsed > 5*time.Second {
		t.Fatalf("swap took %v while a query was in flight", elapsed)
	}
	var hz struct {
		Epoch uint64 `json:"epoch"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK || hz.Epoch != 1 {
		t.Fatalf("healthz after swap: code %d epoch %d, want 200/1", code, hz.Epoch)
	}

	// Release the pinned query: it must finish successfully on the OLD
	// snapshot (epoch 0) even though epoch 1 is already live.
	close(gate.release)
	r := <-done
	if r.status != http.StatusOK {
		t.Fatalf("pinned query status %d", r.status)
	}
	if r.out.Epoch != 0 {
		t.Fatalf("pinned query served from epoch %d, want the epoch-0 snapshot it started on", r.out.Epoch)
	}
	for _, name := range r.out.Tables {
		if name == "zz_swap_extra" {
			t.Fatal("pinned query observed a table added after it started")
		}
	}

	// A fresh query sees the new snapshot.
	_, fresh := postSearch(t, ts.URL, searchBody(t, q, 5))
	if fresh.Epoch != 1 {
		t.Fatalf("fresh query epoch %d, want 1", fresh.Epoch)
	}
}

// TestAdmissionSheddingWhenSaturated pins the 503 path: with one slot held
// by a pinned query and a tiny timeout, the next request is shed.
func TestAdmissionSheddingWhenSaturated(t *testing.T) {
	b := fixedLake()
	gate := &gateEncoder{started: make(chan struct{}), release: make(chan struct{})}
	p := dust.New(b.Lake, dust.WithTopTables(5), dust.WithTupleEncoder(gate))
	srv := New(p, WithTimeout(200*time.Millisecond), WithMaxInFlight(1))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer close(gate.release)

	q := b.Queries[0]
	go func() {
		resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(searchBody(t, q, 5)))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-gate.started

	resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(searchBody(t, q, 5)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated search status %d, want 503", resp.StatusCode)
	}
}

// TestServeWarmStartFromIndexDir boots a server from a SaveIndex directory
// and pins its responses to the cold-built server's.
func TestServeWarmStartFromIndexDir(t *testing.T) {
	b := fixedLake()
	p := dust.New(b.Lake, dust.WithTopTables(5))
	dir := filepath.Join(t.TempDir(), "index")
	if err := p.SaveIndex(dir); err != nil {
		t.Fatal(err)
	}
	warm, err := dust.LoadPipelineLake(b.Lake, dir, dust.WithTopTables(5))
	if err != nil {
		t.Fatal(err)
	}

	cold := httptest.NewServer(New(p))
	defer cold.Close()
	warmSrv := httptest.NewServer(New(warm))
	defer warmSrv.Close()

	body := searchBody(t, b.Queries[0], 6)
	_, a := postSearch(t, cold.URL, body)
	_, c := postSearch(t, warmSrv.URL, body)
	ab, _ := json.Marshal(a)
	cb, _ := json.Marshal(c)
	if !bytes.Equal(ab, cb) {
		t.Fatalf("warm-booted server differs from cold:\ncold: %s\nwarm: %s", ab, cb)
	}
}

// TestModelEncoderServes covers serving with a fine-tuned model installed,
// the paper's full setup.
func TestModelEncoderServes(t *testing.T) {
	b := fixedLake()
	pairs := datagen.Pairs(b, 40, 7)
	m := model.Train("dust-tiny", model.NewRoBERTaFeaturizer(), pairs.Train, pairs.Val, model.Config{
		Hidden: 16, OutDim: 8, Epochs: 2, Patience: 2, LR: 0.01, Seed: 1,
	})
	p := dust.New(b.Lake, dust.WithTopTables(5), dust.WithTupleEncoder(m))
	ts := httptest.NewServer(New(p))
	defer ts.Close()
	resp, out := postSearch(t, ts.URL, searchBody(t, b.Queries[0], 5))
	if resp.StatusCode != http.StatusOK || len(out.Tuples.Rows) == 0 {
		t.Fatalf("model-backed search: status %d rows %d", resp.StatusCode, len(out.Tuples.Rows))
	}
}

func TestConfigTagInStats(t *testing.T) {
	_, ts, _ := newTestServer(t)
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	for _, part := range []string{"starmie", "dust", "|5"} {
		if !strings.Contains(st.ConfigTag, part) {
			t.Fatalf("config tag %q missing %q", st.ConfigTag, part)
		}
	}
}

// TestServerClose pins Close on a sharded server with a swap history:
// repeated calls are no-ops, and requests still serve identical results
// afterwards.
func TestServerClose(t *testing.T) {
	b := fixedLake()
	p := dust.New(b.Lake, dust.WithTopTables(5), dust.WithShards(3))
	srv := New(p)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Swap in a mutation first so Close has to cover a cloned snapshot too.
	extra := b.Lake.Tables()[0].Clone("zz_close_extra")
	putBody, _ := json.Marshal(tableJSON{Headers: extra.Headers(), Rows: rowsOf(extra)})
	if resp, out := doJSON(t, http.MethodPut, ts.URL+"/tables/zz_close_extra", putBody); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put status %d: %s", resp.StatusCode, out)
	}

	body := searchBody(t, b.Queries[0], 3)
	resp, before := postSearch(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search before close: status %d", resp.StatusCode)
	}

	srv.Close()
	srv.Close() // idempotent

	resp, after := postSearch(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search after close: status %d", resp.StatusCode)
	}
	if fmt.Sprint(after.Tables) != fmt.Sprint(before.Tables) || after.Epoch != before.Epoch {
		t.Fatalf("response changed across Close: %v (epoch %d) vs %v (epoch %d)",
			after.Tables, after.Epoch, before.Tables, before.Epoch)
	}
}
