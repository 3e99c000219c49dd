package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"dust"
	"dust/internal/datagen"
	"dust/internal/lake"
	"dust/internal/table"
)

// smOracle answers what a from-scratch dust.New over an epoch's table set
// answers: the driver publishes each epoch's set before the mutation that
// makes it, so any response a client sees can be checked.
type smOracle struct {
	topTables int
	queries   []*table.Table

	mu      sync.Mutex
	sets    map[uint64][]*table.Table
	pipes   map[uint64]*dust.Pipeline
	answers map[string]searchResponse
}

func (o *smOracle) publish(epoch uint64, tables []*table.Table) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sets[epoch] = slices.Clone(tables)
}

// answer is the response, uncached, to query qi at k over epoch's set, or
// the error the search fails with.
func (o *smOracle) answer(epoch uint64, qi, k int) (searchResponse, error) {
	key := fmt.Sprintf("%d|%d|%d", epoch, qi, k)
	o.mu.Lock()
	defer o.mu.Unlock()
	if resp, ok := o.answers[key]; ok {
		return resp, nil
	}
	p := o.pipes[epoch]
	if p == nil {
		set, ok := o.sets[epoch]
		if !ok {
			return searchResponse{}, fmt.Errorf("epoch %d was never published", epoch)
		}
		l := lake.New("oracle")
		for _, t := range set {
			l.MustAdd(t)
		}
		p = dust.New(l, dust.WithTopTables(o.topTables))
		o.pipes[epoch] = p
	}
	res, err := p.Search(o.queries[qi], k)
	if err != nil {
		return searchResponse{}, err
	}
	resp := newSearchResponse(res, epoch, k, false)
	o.answers[key] = resp
	return resp, nil
}

// latest is the last epoch published.
func (o *smOracle) latest() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return uint64(len(o.sets) - 1)
}

// check holds the server's response to query qi at k, sent once epoch
// from was published, to the oracle. A 200 must be byte-identical to the
// oracle's answer at the epoch it reports, cached or not, and that epoch
// no older than from; a 422 (a query whose tables align on nothing) must
// carry the error the oracle's search fails with at some epoch since.
func (o *smOracle) check(status int, body []byte, qi, k int, from uint64) (searchResponse, error) {
	var out searchResponse
	if status == http.StatusUnprocessableEntity {
		for epoch := from; epoch <= o.latest(); epoch++ {
			if _, err := o.answer(epoch, qi, k); err != nil && bytes.Contains(body, []byte(err.Error())) {
				out.Epoch = epoch
				return out, nil
			}
		}
		return out, fmt.Errorf("query %d k %d: 422 no search since epoch %d fails with: %s", qi, k, from, body)
	}
	if status != http.StatusOK {
		return out, fmt.Errorf("query %d k %d: status %d: %s", qi, k, status, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, fmt.Errorf("decode: %w (%s)", err, body)
	}
	if out.Epoch < from {
		return out, fmt.Errorf("query %d k %d: epoch went back from %d to %d", qi, k, from, out.Epoch)
	}
	want, err := o.answer(out.Epoch, qi, k)
	if err != nil {
		return out, err
	}
	want.Cached = out.Cached
	wantBody, err := marshalJSON(want)
	if err != nil {
		return out, err
	}
	if !bytes.Equal(body, wantBody) {
		return out, fmt.Errorf("query %d k %d at epoch %d (cached=%v):\n got %s\nwant %s", qi, k, out.Epoch, out.Cached, body, wantBody)
	}
	return out, nil
}

// post sends query qi at k to url and returns the response.
func (o *smOracle) post(url string, qi, k int) (int, []byte, error) {
	q := o.queries[qi]
	req, err := json.Marshal(searchRequest{Query: tableJSON{Name: q.Name, Headers: q.Headers(), Rows: rowsOf(q)}, K: k})
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url+"/search", "application/json", bytes.NewReader(req))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

// smDriver is the one mutator: it tracks the table set the server holds,
// publishes each next set to the oracle, and checks its own searches.
type smDriver struct {
	t      *testing.T
	url    string
	o      *smOracle
	epoch  uint64
	tables []*table.Table
	// sources are tables the driver never deletes.
	sources map[string]bool
}

// removable is the first of an answer's tables, its last excepted, that
// the driver may delete.
func (d *smDriver) removable(tables []string) string {
	for _, name := range tables[:len(tables)-1] {
		if !d.sources[name] {
			return name
		}
	}
	d.t.Fatalf("every table of %v but the last is a query's source", tables)
	return ""
}

func (d *smDriver) get(name string) *table.Table {
	i := slices.IndexFunc(d.tables, func(t *table.Table) bool { return t.Name == name })
	if i < 0 {
		d.t.Fatalf("no table %q in the driver's set", name)
	}
	return d.tables[i]
}

func (d *smDriver) put(tb *table.Table) {
	d.t.Helper()
	next := append(slices.Clone(d.tables), tb)
	d.o.publish(d.epoch+1, next)
	body, _ := json.Marshal(tableJSON{Headers: tb.Headers(), Rows: rowsOf(tb)})
	resp, out := doJSON(d.t, http.MethodPut, d.url+"/tables/"+tb.Name, body)
	if resp.StatusCode != http.StatusCreated {
		d.t.Fatalf("PUT %s: status %d: %s", tb.Name, resp.StatusCode, out)
	}
	d.epoch, d.tables = d.epoch+1, next
}

func (d *smDriver) del(name string) {
	d.t.Helper()
	next := slices.DeleteFunc(slices.Clone(d.tables), func(t *table.Table) bool { return t.Name == name })
	d.o.publish(d.epoch+1, next)
	resp, out := doJSON(d.t, http.MethodDelete, d.url+"/tables/"+name, nil)
	if resp.StatusCode != http.StatusOK {
		d.t.Fatalf("DELETE %s: status %d: %s", name, resp.StatusCode, out)
	}
	d.epoch, d.tables = d.epoch+1, next
}

// search checks the server's answer to query qi at k, which must be at
// the driver's epoch: nothing else mutates.
func (d *smDriver) search(qi, k int) (out searchResponse) {
	d.t.Helper()
	status, body, err := d.o.post(d.url, qi, k)
	if err == nil {
		out, err = d.o.check(status, body, qi, k, d.epoch)
	}
	if err != nil {
		d.t.Fatal(err)
	}
	if out.Epoch != d.epoch {
		d.t.Fatalf("query %d k %d answered at epoch %d, want %d", qi, k, out.Epoch, d.epoch)
	}
	return out
}

// wordsTable is a table of one column, header, holding words ten to a
// row.
func wordsTable(name, header string, words []string) *table.Table {
	t := table.New(name, header)
	for i := 0; i < len(words); i += 10 {
		t.MustAppendRow(strings.Join(words[i:min(i+10, len(words))], " "))
	}
	return t
}

// wordList is n words prefix000, prefix001, ….
func wordList(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%03d", prefix, i)
	}
	return out
}

// TestCacheStateMachine drives a server through a seeded PUT/DELETE/search
// sequence, scripted where a cached answer's fate is the point, while
// clients search concurrently. Every 200 — computed, a plain hit or a
// revalidated hit — must be byte-identical to the response a from-scratch
// dust.New over the table set of the epoch it reports gives, and each
// client's epochs must never go back. Run under -race in CI.
func TestCacheStateMachine(t *testing.T) {
	spec := datagen.LakeSpec{Name: "sm", Seed: 29, Tables: 18, Rows: 16}
	l := spec.Generate()
	var held []*table.Table // tables the random phase PUTs
	for _, name := range l.Names()[l.Len()-4:] {
		held = append(held, l.Get(name))
		if err := l.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	// Query 3 has one column of 600 words, over the 512-token budget.
	aWords, bWords := wordList("a", 300), wordList("b", 300)
	o := &smOracle{
		topTables: 4,
		queries:   []*table.Table{spec.Query(0), spec.Query(1), spec.Query(2), wordsTable("q_ab", "words", append(slices.Clone(aWords), bWords...))},
		sets:      map[uint64][]*table.Table{0: l.Tables()},
		pipes:     map[uint64]*dust.Pipeline{},
		answers:   map[string]searchResponse{},
	}
	srv := New(dust.New(l, dust.WithTopTables(o.topTables)), WithMaxInFlight(4))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// A query's answer leads with the table it was drawn from; the driver
	// keeps those, so that queries 0-2 keep tables to align with.
	d := &smDriver{t: t, url: ts.URL, o: o, tables: l.Tables(), sources: map[string]bool{}}
	for qi := range 3 {
		d.sources[d.search(qi, 5).Tables[0]] = true
	}

	// Concurrent clients search queries 0-2 at k 3 and 4; the driver's own
	// searches use k 5 and 6, so their cache lines, and what each of its
	// searches must find there, are its own.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				qi, k := rng.Intn(3), 3+rng.Intn(2)
				status, body, err := o.post(ts.URL, qi, k)
				if err == nil {
					var out searchResponse
					out, err = o.check(status, body, qi, k, last)
					last = out.Epoch
				}
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	// A copy of the answer's last table scores what it scores. Named to
	// sort after it, the copy ties and stays out: the entry is revalidated.
	a := d.search(0, 5)
	if len(a.Tables) != o.topTables {
		t.Fatalf("answer holds %d tables, want the full %d", len(a.Tables), o.topTables)
	}
	last := d.get(a.Tables[len(a.Tables)-1])
	d.put(last.Clone("zzz_copy"))
	if b := d.search(0, 5); !b.Cached || !slices.Equal(b.Tables, a.Tables) {
		t.Fatalf("after a copy that sorts last: cached=%v tables %v, want a hit on %v", b.Cached, b.Tables, a.Tables)
	}
	// Named to sort first, the same copy ties and enters the ranking.
	d.put(last.Clone("000_copy"))
	c := d.search(0, 5)
	if c.Cached || !slices.Contains(c.Tables, "000_copy") {
		t.Fatalf("after a copy that sorts first: cached=%v tables %v, want a miss holding 000_copy", c.Cached, c.Tables)
	}
	// Removing a table of the answer other than its last, which the check
	// scores, must miss.
	gone := d.removable(c.Tables)
	d.del(gone)
	e := d.search(0, 5)
	if e.Cached {
		t.Fatalf("served an answer holding %s, deleted since", gone)
	}
	// A name deleted and PUT again with other content is a removal.
	gone = d.removable(e.Tables)
	d.del(gone)
	d.put(held[0].Clone(gone))
	if f := d.search(0, 5); f.Cached {
		t.Fatal("served an answer holding a table replaced since")
	}
	// A table with a column over the budget is cut against its own columns
	// alone: adding it moves no other score, so an entry it ranks below is
	// revalidated, and so is one after it leaves again, with no encode.
	d.search(0, 5)
	d.put(wordsTable("zz_big", "text", wordList("x", 600)))
	if g := d.search(0, 5); !g.Cached {
		t.Fatal("an over-budget table added below the answer was not revalidated")
	}
	d.del("zz_big")
	if g := d.search(0, 5); !g.Cached {
		t.Fatal("an answer was not revalidated after a deletion outside it")
	}

	// The query over the budget picks its 512 words by TF-IDF over its own
	// column, so no other table moves its vector. Fillers that carry the
	// a-words (and too much else to score) rank out of its answer; deleting
	// them, and adding one back, leaves the answer standing.
	d.put(wordsTable("ab_a", "words", aWords))
	d.put(wordsTable("ab_b", "words", bWords))
	d.put(wordsTable("ab_bf", "words", bWords))
	var fillers []*table.Table
	for i := 0; i < 6; i++ {
		chunk := aWords[100*(i%3) : 100*(i%3)+100]
		filler := wordsTable(fmt.Sprintf("zz_fill%d", i), "noise", append(slices.Clone(chunk), wordList(fmt.Sprintf("n%d_", i), 400)...))
		d.put(filler)
		fillers = append(fillers, filler)
	}
	s1 := d.search(3, 5)
	if len(s1.Tables) != o.topTables {
		t.Fatalf("the over-budget query's answer holds %d tables, want the full %d", len(s1.Tables), o.topTables)
	}
	for _, filler := range fillers {
		if slices.Contains(s1.Tables, filler.Name) {
			t.Fatalf("filler %s in the answer %v: the scenario needs them out", filler.Name, s1.Tables)
		}
	}
	for _, filler := range fillers {
		d.del(filler.Name)
	}
	if s2 := d.search(3, 5); !s2.Cached || !slices.Equal(s2.Tables, s1.Tables) {
		t.Fatalf("after deletions outside it: cached=%v tables %v, want a hit on %v", s2.Cached, s2.Tables, s1.Tables)
	}
	d.put(fillers[0])
	if s3 := d.search(3, 5); !s3.Cached || !slices.Equal(s3.Tables, s1.Tables) {
		t.Fatalf("after re-adding a filler: cached=%v tables %v, want a hit on %v", s3.Cached, s3.Tables, s1.Tables)
	}
	d.del(fillers[0].Name)
	for _, name := range []string{"ab_a", "ab_b", "ab_bf"} {
		d.del(name)
	}

	// Random phase: PUTs of held-out tables and of copies named to sort
	// before or after their source, DELETEs, searches.
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 60; i++ {
		switch r := rng.Intn(4); {
		case r == 0 && len(d.tables) > 12:
			if name := d.tables[rng.Intn(len(d.tables))].Name; !d.sources[name] {
				d.del(name)
			}
		case r == 1:
			src := d.tables[rng.Intn(len(d.tables))]
			if rng.Intn(3) == 0 {
				src = held[2+rng.Intn(2)]
			}
			prefix := []string{"000_r", "zzz_r", "q_r"}[rng.Intn(3)]
			d.put(src.Clone(fmt.Sprintf("%s%02d", prefix, i)))
		default:
			d.search(rng.Intn(3), 5)
		}
	}

	// More mutations than a snapshot's log holds, the first removing a
	// table of the answer: the entry is past the log's horizon.
	h0 := d.search(1, 6)
	d.del(d.removable(h0.Tables))
	for i := 0; i < logLen/2; i++ {
		name := fmt.Sprintf("zz_h%02d", i)
		d.put(held[3].Clone(name))
		d.del(name)
	}
	if h1 := d.search(1, 6); h1.Cached {
		t.Fatal("served an entry older than the log reaches")
	}

	text := scrapeMetrics(t, ts.URL)
	for _, outcome := range staleOutcomes {
		series := fmt.Sprintf("dust_cache_stale_total{outcome=%q} 0\n", outcome)
		if strings.Contains(text, series) {
			t.Errorf("the sequence never produced a stale outcome %q", outcome)
		}
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Cache.Hits+st.Cache.Misses != st.Searches+st.Rejected {
		t.Errorf("cache %d hits + %d misses over %d searches and %d failures", st.Cache.Hits, st.Cache.Misses, st.Searches, st.Rejected)
	}
	t.Logf("%d searches (%d failed): %d hits (%d revalidated), %d misses; %d mutations",
		st.Searches+st.Rejected, st.Rejected, st.Cache.Hits, st.Cache.Revalidated, st.Cache.Misses, st.Mutations)
}
