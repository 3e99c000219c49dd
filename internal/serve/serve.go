package serve

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dust"
	"dust/internal/lake"
	"dust/internal/par"
	"dust/internal/search"
	"dust/internal/table"
)

// DefaultK is the result count served when a search request does not name
// one.
const DefaultK = 10

// DefaultMaxBodyBytes caps request bodies (64 MiB): a stray multi-gigabyte
// upload must fail with 413, not buffer into the long-running server's
// heap.
const DefaultMaxBodyBytes = 64 << 20

// maxK caps the result count one search request may ask for.
const maxK = 1000

// Server is an http.Handler exposing one dust.Pipeline as a search service
// with live mutation. See the package comment for the concurrency model.
//
// Endpoints:
//
//	POST   /search         run a diverse-tuple search (JSON or text/csv body)
//	GET    /tables         list the lake's tables
//	PUT    /tables/{name}  add a table to the lake and live index
//	DELETE /tables/{name}  remove a table from the lake and live index
//	GET    /stats          cache/admission/lake counters
//	GET    /healthz        liveness + current epoch
//	GET    /metrics        Prometheus text exposition (see docs/OPERATIONS.md)
type Server struct {
	snap  atomic.Pointer[Snapshot]
	mu    sync.Mutex // serializes mutations: clone -> apply -> swap
	cache *Cache
	sem   chan struct{}

	timeout      time.Duration
	maxBody      int64
	queryWorkers int
	cacheCap     int   // entry bound handed to the cache at construction
	cacheBytes   int64 // byte bound handed to the cache; 0 = unbounded

	degradeThreshold float64 // load factor at which searches degrade; 0 = off

	// Background compaction (see compactLoop). compacting and closed are
	// guarded by mu, which both the mutation that starts a pass and the
	// pass's swap hold; passes counts the running pass for Close.
	compacting bool
	closed     bool
	passes     sync.WaitGroup

	searches    atomic.Uint64 // successfully served, cached or not
	mutations   atomic.Uint64
	rejected    atomic.Uint64 // admission/deadline/pipeline failures
	canceled    atomic.Uint64 // client went away mid-request
	waiting     atomic.Int64  // searches parked at admission right now
	degraded    atomic.Uint64 // searches answered by the ANN view under load
	shed        atomic.Uint64 // searches refused with 503 + Retry-After under load
	compactions atomic.Uint64 // background passes that compacted and swapped

	metrics *serverMetrics
	logw    io.Writer  // request log sink; nil disables logging
	logmu   sync.Mutex // serializes request-log writes

	mux *http.ServeMux
}

// Option customizes a Server.
type Option func(*Server)

// WithCacheCapacity bounds the query-result cache to about n responses
// (default 1024); n <= 0 disables caching.
func WithCacheCapacity(n int) Option { return func(s *Server) { s.cacheCap = n } }

// WithCacheBytes additionally bounds the cache's resident bytes (key +
// body + per-entry overhead); n <= 0 (the default) leaves bytes unbounded,
// with only the entry-count bound of WithCacheCapacity in force.
func WithCacheBytes(n int64) Option { return func(s *Server) { s.cacheBytes = n } }

// WithDegradeThreshold enables degraded admission: when the in-flight load
// factor (executing + waiting searches over the admission bound) reaches
// f, uncached searches are answered from the snapshot's ANN view — same
// index, approximate retrieval — instead of the exact plan. A pipeline
// already in ANN mode has nothing cheaper and sheds instead: 503 with
// Retry-After: 1. f <= 0 (the default) disables the policy. Degraded
// responses carry "degraded": true and count in dust_serve_degraded_total.
func WithDegradeThreshold(f float64) Option { return func(s *Server) { s.degradeThreshold = f } }

// WithMaxInFlight bounds the number of concurrently executing searches
// (default: the GOMAXPROCS-derived worker count). Excess requests wait for
// a slot until their timeout and are then rejected with 503.
func WithMaxInFlight(n int) Option {
	return func(s *Server) { s.sem = make(chan struct{}, par.Normalize(n)) }
}

// WithQueryWorkers bounds the data parallelism inside each request
// (default 1, so the in-flight bound alone governs total load).
func WithQueryWorkers(n int) Option {
	return func(s *Server) {
		if n < 1 {
			n = 1
		}
		s.queryWorkers = n
	}
}

// WithTimeout sets the per-request budget threaded into SearchContext
// (default 30s); d <= 0 disables the server-side deadline.
func WithTimeout(d time.Duration) Option { return func(s *Server) { s.timeout = d } }

// WithMaxBodyBytes caps request body sizes (default DefaultMaxBodyBytes);
// n <= 0 removes the cap.
func WithMaxBodyBytes(n int64) Option { return func(s *Server) { s.maxBody = n } }

// New wraps a pipeline in a Server. The pipeline must not be used by the
// caller afterwards: the server owns it (mutations clone and swap it, and
// graph compaction runs on a background clone, never inside a request).
func New(p *dust.Pipeline, opts ...Option) *Server {
	s := &Server{
		cacheCap:     1024,
		timeout:      30 * time.Second,
		maxBody:      DefaultMaxBodyBytes,
		queryWorkers: 1,
	}
	for _, o := range opts {
		o(s)
	}
	s.cache = NewCacheBytes(s.cacheCap, s.cacheBytes)
	if s.sem == nil {
		s.sem = make(chan struct{}, par.DefaultWorkers())
	}
	if s.degradeThreshold > 0 {
		// Degraded admission needs an ANN view; install the graph up front
		// (it survives clones and mode flips) so the very first overload
		// can degrade instead of shedding.
		p.PrepareANN()
	}
	// Mutations never rebuild a graph inline: mutate hands the debt to a
	// background pass instead. The policy bit is cloned into every future
	// snapshot.
	p.SetAutoCompact(false)
	s.snap.Store(newSnapshot(p, s.queryWorkers))
	s.metrics = newServerMetrics(s)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /search", s.instrument("/search", s.handleSearch))
	s.mux.HandleFunc("GET /tables", s.instrument("/tables", s.handleListTables))
	s.mux.HandleFunc("PUT /tables/{name}", s.instrument("/tables/{name}", s.handlePutTable))
	s.mux.HandleFunc("DELETE /tables/{name}", s.instrument("/tables/{name}", s.handleDeleteTable))
	s.mux.HandleFunc("GET /stats", s.instrument("/stats", s.handleStats))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", s.metrics.reg)
	return s
}

// ServeHTTP implements http.Handler. Bodies are capped before any handler
// buffers them; past the cap, reads fail and the decoders report 400.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.maxBody > 0 && r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	s.mux.ServeHTTP(w, r)
}

// Snapshot returns the currently published snapshot (for tests and
// embedding callers; requests load it exactly once themselves).
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Close waits for a running compaction pass to leave the published
// snapshot at or under the rebuild threshold, and later mutations start no
// pass; the served pipeline holds nothing else to release. Requests,
// mutations included, keep being answered after Close. Close is
// idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.passes.Wait()
}

// tableJSON is the wire form of a table: a header row plus value rows.
type tableJSON struct {
	Name    string     `json:"name,omitempty"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// toTable validates the wire form and builds a table named name.
func (tj *tableJSON) toTable(name string) (*table.Table, error) {
	if len(tj.Headers) == 0 {
		return nil, errors.New("table needs at least one header")
	}
	t := table.New(name, tj.Headers...)
	for i, row := range tj.Rows {
		if err := t.AppendRow(row); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	return t, nil
}

// fromTable converts a table to its wire form.
func fromTable(t *table.Table) tableJSON {
	rows := make([][]string, t.NumRows())
	for i := range rows {
		rows[i] = t.Row(i)
	}
	return tableJSON{Name: t.Name, Headers: t.Headers(), Rows: rows}
}

// searchRequest is the JSON body of POST /search.
type searchRequest struct {
	Query tableJSON `json:"query"`
	K     int       `json:"k,omitempty"`
}

// provenanceJSON names the source of one result tuple.
type provenanceJSON struct {
	Table string `json:"table"`
	Row   int    `json:"row"`
}

// searchResponse is the JSON body of a successful POST /search.
type searchResponse struct {
	Epoch      uint64           `json:"epoch"`
	Cached     bool             `json:"cached"`
	Degraded   bool             `json:"degraded,omitempty"`
	K          int              `json:"k"`
	Tables     []string         `json:"tables"`
	Pool       int              `json:"pool"`
	Tuples     tableJSON        `json:"tuples"`
	Provenance []provenanceJSON `json:"provenance"`
}

// errorJSON is the body of every non-2xx response.
type errorJSON struct {
	Error string `json:"error"`
}

// marshalJSON renders v the way every response body is rendered (no HTML
// escaping, trailing newline), so cached bytes are byte-identical in shape
// to live ones.
func marshalJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := marshalJSON(v)
	if err != nil {
		// Even the encode-failure path honors the errorJSON contract:
		// clients parse every non-2xx body as {"error": ...}, so the
		// fallback must be JSON too, not http.Error's text/plain.
		body, _ = marshalJSON(errorJSON{Error: "encode response: " + err.Error()})
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorJSON{Error: msg})
}

// bodyCapMessage returns the 413 message for err if it stems from the
// request-body cap (http.MaxBytesReader), else "". The cap surfaces as a
// read error deep inside whichever decoder was draining the body, so
// callers must probe before classifying a decode failure as the client's
// malformed input.
func bodyCapMessage(err error) string {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return fmt.Sprintf("request body exceeds the %d-byte cap", mbe.Limit)
	}
	return ""
}

// decodeError maps a body-decode failure to its status and message:
// 413 when the body cap was hit, 400 otherwise.
func decodeError(err error) (int, string) {
	if msg := bodyCapMessage(err); msg != "" {
		return http.StatusRequestEntityTooLarge, msg
	}
	return http.StatusBadRequest, err.Error()
}

// decodeBody reads a request body that carries one table into tj: a raw
// CSV, header row first, when Content-Type is text/csv — which makes
// `curl --data-binary @table.csv` work without any JSON assembly — and
// otherwise exactly one JSON value into v, which is tj itself or a request
// wrapping it; unknown fields and trailing data are refused. Past the body
// cap the error is the cap's own, which decodeError answers with 413.
func decodeBody(r *http.Request, tj *tableJSON, v any) error {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "text/csv") {
		rec, err := csv.NewReader(r.Body).ReadAll()
		if err != nil {
			return fmt.Errorf("bad csv body: %w", err)
		}
		if len(rec) == 0 {
			return errors.New("empty csv body")
		}
		*tj = tableJSON{Headers: rec[0], Rows: rec[1:]}
		return nil
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		// A capped body also fails this probe; keep the cause so the
		// handler reports 413, not a bogus trailing-data 400.
		if err != nil && bodyCapMessage(err) != "" {
			return err
		}
		return errors.New("trailing data after request body")
	}
	return nil
}

// decodeSearchRequest parses a /search body through decodeBody: a search
// request in JSON, or the query alone as CSV, in which case k comes from
// the ?k= query parameter.
func decodeSearchRequest(r *http.Request) (*table.Table, int, error) {
	k := 0
	if raw := r.URL.Query().Get("k"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			return nil, 0, fmt.Errorf("bad k parameter %q", raw)
		}
		k = n
	}
	var req searchRequest
	if err := decodeBody(r, &req.Query, &req); err != nil {
		return nil, 0, err
	}
	if k == 0 {
		k = req.K
	}
	name := req.Query.Name
	if name == "" {
		name = "query"
	}
	q, err := req.Query.toTable(name)
	if err != nil {
		return nil, 0, err
	}
	return q, k, nil
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	info := infoFrom(ctx)
	info.isSearch = true
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	query, k, err := decodeSearchRequest(r)
	if err != nil {
		status, msg := decodeError(err)
		info.errMsg = msg
		httpError(w, status, msg)
		return
	}
	switch {
	case k == 0:
		k = DefaultK
	case k < 0:
		msg := fmt.Sprintf("k must be positive, got %d", k)
		info.errMsg = msg
		httpError(w, http.StatusBadRequest, msg)
		return
	case k > maxK:
		msg := fmt.Sprintf("k %d exceeds the server cap %d", k, maxK)
		info.errMsg = msg
		httpError(w, http.StatusBadRequest, msg)
		return
	}

	// One atomic load pins this request to a consistent snapshot: index,
	// lake, config tag, and epoch all come from the same published state,
	// no matter how many swaps happen while the query runs.
	snap := s.snap.Load()
	info.k, info.epoch = k, snap.Epoch()

	// A cache hit is a map lookup plus a byte write — no pipeline work —
	// so it is served before admission: a saturated server keeps answering
	// cached traffic while shedding only queries that would cost compute.
	// With the cache off there is no fingerprint, key or cached copy.
	var fp, key string
	if s.cache == nil {
		info.cache = "none"
	} else {
		fp = queryFingerprint(query)
		key = cacheKey(fp, k, snap.tag, snap.Epoch())
		if body, ok := s.cache.Get(key); ok {
			s.searches.Add(1)
			info.cache = "hit"
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(body)
			return
		}
		info.cache = "miss"
	}

	// Degraded admission: at or past the load threshold, a search runs
	// against the snapshot's ANN view — same frozen index, approximate
	// retrieval — and a pipeline with no such view sheds the request
	// instead of queueing it into a backlog it cannot drain. Degraded
	// requests still pass the admission gate below: the policy trades work
	// per slot, not the slot bound itself.
	view := snap.query
	if load, over := s.overloaded(); over {
		if snap.degraded != nil {
			view = snap.degraded
			info.degraded = true
			s.degraded.Add(1)
			// The degraded plan has its own config tag, so its cache lines
			// never mix with exact results; probe them before computing.
			if s.cache != nil {
				key = cacheKey(fp, k, snap.degradedTag, snap.Epoch())
				if body, ok := s.cache.Get(key); ok {
					s.searches.Add(1)
					info.cache = "hit"
					w.Header().Set("Content-Type", "application/json")
					_, _ = w.Write(body)
					return
				}
			}
		} else {
			s.shed.Add(1)
			s.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			msg := fmt.Sprintf("server overloaded (load %.2f, threshold %.2f) and no degraded mode is available", load, s.degradeThreshold)
			info.errMsg = msg
			httpError(w, http.StatusServiceUnavailable, msg)
			return
		}
	}

	// Admission: wait for an in-flight slot, but never past the request's
	// deadline — a saturated server sheds load instead of queueing forever.
	// A client that disconnects while parked is an abandonment (canceled),
	// not load shedding (rejected); the two counters answer different
	// operational questions.
	waitStart := time.Now()
	s.waiting.Add(1)
	select {
	case s.sem <- struct{}{}:
		s.waiting.Add(-1)
		s.metrics.admissionWait.With().Observe(time.Since(waitStart).Seconds())
		defer func() { <-s.sem }()
	case <-ctx.Done():
		s.waiting.Add(-1)
		if errors.Is(ctx.Err(), context.Canceled) {
			s.canceled.Add(1)
		} else {
			s.rejected.Add(1)
		}
		msg := "server saturated: " + ctx.Err().Error()
		info.errMsg = msg
		httpError(w, http.StatusServiceUnavailable, msg)
		return
	}

	tr := &search.Trace{}
	res, err := view.SearchContext(search.WithTrace(ctx, tr), query, k)
	if err != nil {
		info.errMsg = err.Error()
		switch {
		case errors.Is(err, context.Canceled):
			// The client went away; the status is for logs only.
			s.canceled.Add(1)
			httpError(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, context.DeadlineExceeded):
			s.rejected.Add(1)
			httpError(w, http.StatusGatewayTimeout, err.Error())
		default:
			s.rejected.Add(1)
			httpError(w, http.StatusUnprocessableEntity, err.Error())
		}
		return
	}
	info.trace = tr

	prov := make([]provenanceJSON, len(res.Provenance))
	for i, p := range res.Provenance {
		prov[i] = provenanceJSON{Table: p.Table, Row: p.Row}
	}
	// The result table's name derives from the client-chosen query name,
	// which the cache fingerprint deliberately ignores; strip it so a
	// cached body never leaks one client's name to another and cached
	// bytes equal what any client's uncached request would produce.
	tuples := fromTable(res.Tuples)
	tuples.Name = ""
	resp := searchResponse{
		Epoch:      snap.Epoch(),
		Degraded:   info.degraded,
		K:          k,
		Tables:     res.UnionableTables,
		Pool:       res.Unioned.NumRows(),
		Tuples:     tuples,
		Provenance: prov,
	}
	s.searches.Add(1)
	writeJSON(w, http.StatusOK, resp)

	if s.cache == nil {
		return
	}
	// Cache the response with Cached pre-flipped so hits are a pure
	// lookup-and-write with zero marshaling on the hot path. marshalJSON
	// keeps the cached bytes shaped exactly like the live ones.
	resp.Cached = true
	if body, err := marshalJSON(resp); err == nil {
		s.cache.Put(key, body)
	}
}

// mutate runs apply on a copy-on-write clone of the current snapshot's
// pipeline under the mutation lock and publishes the result, returning the
// published snapshot so callers report an (epoch, table count) pair that
// actually existed — not state re-read after later swaps. In-flight
// queries keep reading the old snapshot; they never block this swap and it
// never blocks them. A published snapshot whose graphs are over the
// rebuild threshold starts a background compaction pass unless one is
// already running (which re-checks the published snapshot when it ends).
func (s *Server) mutate(apply func(p *dust.Pipeline) error) (*Snapshot, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	shadow := cur.master.Clone()
	if err := apply(shadow); err != nil {
		switch {
		case errors.Is(err, lake.ErrUnknownTable):
			// A concurrent mutation beat this one to the table.
			return nil, http.StatusNotFound, err
		case errors.Is(err, search.ErrDuplicateTable), errors.Is(err, lake.ErrDuplicateTable):
			return nil, http.StatusConflict, err
		}
		return nil, http.StatusUnprocessableEntity, err
	}
	next := newSnapshot(shadow, s.queryWorkers)
	s.snap.Store(next)
	s.mutations.Add(1)
	if !s.compacting && !s.closed && overCompactThreshold(next) {
		s.compacting = true
		s.passes.Add(1)
		go s.compactLoop()
	}
	return next, http.StatusOK, nil
}

// mutationResponse is the body of a successful table mutation.
type mutationResponse struct {
	Epoch  uint64 `json:"epoch"`
	Table  string `json:"table"`
	Tables int    `json:"tables"`
}

func (s *Server) handlePutTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var tj tableJSON
	if err := decodeBody(r, &tj, &tj); err != nil {
		status, msg := decodeError(err)
		httpError(w, status, msg)
		return
	}
	t, err := tj.toTable(name)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Duplicate probe outside mutate for a clean 409; the authoritative
	// check is AddTable's own under the mutation lock.
	if s.snap.Load().master.Lake().Get(name) != nil {
		httpError(w, http.StatusConflict, fmt.Sprintf("table %q already in the lake", name))
		return
	}
	next, status, err := s.mutate(func(p *dust.Pipeline) error { return p.AddTable(t) })
	if err != nil {
		httpError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, mutationResponse{
		Epoch: next.Epoch(), Table: name, Tables: next.master.Lake().Len(),
	})
}

func (s *Server) handleDeleteTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.snap.Load().master.Lake().Get(name) == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no table %q in the lake", name))
		return
	}
	next, status, err := s.mutate(func(p *dust.Pipeline) error { return p.RemoveTable(name) })
	if err != nil {
		httpError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, mutationResponse{
		Epoch: next.Epoch(), Table: name, Tables: next.master.Lake().Len(),
	})
}

// tableInfoJSON is one entry of GET /tables.
type tableInfoJSON struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
}

func (s *Server) handleListTables(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	tables := snap.master.Lake().Tables()
	out := struct {
		Epoch  uint64          `json:"epoch"`
		Tables []tableInfoJSON `json:"tables"`
	}{Epoch: snap.Epoch(), Tables: make([]tableInfoJSON, len(tables))}
	for i, t := range tables {
		out.Tables[i] = tableInfoJSON{Name: t.Name, Rows: t.NumRows(), Cols: t.NumCols()}
	}
	writeJSON(w, http.StatusOK, out)
}

// StatsResponse is the body of GET /stats. It is exported as the wire
// contract for external harnesses: the benchmark's open-loop driver
// (bench/traffic.go) scrapes /stats before and after a run and diffs
// these counters against its client-side accounting.
type StatsResponse struct {
	Epoch       uint64 `json:"epoch"`
	Tables      int    `json:"tables"`
	Columns     int    `json:"columns"`
	Tuples      int    `json:"tuples"`
	Searches    uint64 `json:"searches"`
	Mutations   uint64 `json:"mutations"`
	Rejected    uint64 `json:"rejected"`
	Canceled    uint64 `json:"canceled"`
	Degraded    uint64 `json:"degraded"`
	Shed        uint64 `json:"shed"`
	Compactions uint64 `json:"compactions"`
	InFlight    int    `json:"in_flight"`
	MaxIn       int    `json:"max_in_flight"`
	Cache       struct {
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
		Entries int    `json:"entries"`
		Bytes   int64  `json:"bytes"`
	} `json:"cache"`
	// Index reports the resident footprint of the snapshot's ANN graphs
	// (zero bytes while no graph is installed), mirroring the
	// dust_index_bytes gauge.
	Index struct {
		Bytes int64 `json:"bytes"`
	} `json:"index"`
	ConfigTag string `json:"config"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	st := snap.master.Lake().Stats()
	resp := StatsResponse{
		Epoch:       snap.Epoch(),
		Tables:      st.Tables,
		Columns:     st.Columns,
		Tuples:      st.Tuples,
		Searches:    s.searches.Load(),
		Mutations:   s.mutations.Load(),
		Rejected:    s.rejected.Load(),
		Canceled:    s.canceled.Load(),
		Degraded:    s.degraded.Load(),
		Shed:        s.shed.Load(),
		Compactions: s.compactions.Load(),
		InFlight:    len(s.sem),
		MaxIn:       cap(s.sem),
		ConfigTag:   snap.tag,
	}
	resp.Cache.Hits, resp.Cache.Misses, resp.Cache.Entries, resp.Cache.Bytes = s.cache.Stats()
	resp.Index.Bytes = snap.master.IndexBytes().Bytes
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		Epoch  uint64 `json:"epoch"`
		Tables int    `json:"tables"`
	}{Status: "ok", Epoch: snap.Epoch(), Tables: snap.master.Lake().Len()})
}
