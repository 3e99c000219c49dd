package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"dust/internal/align"
	"dust/internal/embed"
	"dust/internal/obs"
	"dust/internal/search"
	"dust/internal/vector"
)

// serverMetrics bundles the registry and the vec handles the request path
// updates. Scrape-time families (epoch, lake sizes, cache state, counters
// the Server already maintains for /stats) are registered as func metrics
// reading the live values, so /metrics and /stats can never disagree.
type serverMetrics struct {
	reg *obs.Registry
	// requests counts finished requests per endpoint and status class.
	requests *obs.CounterVec
	// latency is the per-endpoint request-latency histogram, split by
	// cache outcome ("hit"/"miss" on /search, "none" elsewhere) and status
	// class — the cached and computed paths differ by ~two orders of
	// magnitude, so one merged histogram would hide both.
	latency *obs.HistogramVec
	// stage is the per-stage search-latency histogram (encode, retrieve,
	// score, align, diversify) from the request's search.Trace; cache hits
	// skip the pipeline and record no stages.
	stage *obs.HistogramVec
	// scanTables counts the candidate tables of served searches by how the
	// exact scan disposed of each (search.Trace's scan counts): the share
	// cut by the bound is what keeps the scan cheap, and it depends on the
	// traffic.
	scanTables *obs.CounterVec
	// admissionWait is the time admitted searches spent waiting for an
	// in-flight slot (shed requests are not recorded here; they show up in
	// the rejected counter).
	admissionWait *obs.HistogramVec
}

// newServerMetrics registers every serving metric against s.
func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg: r,
		requests: r.NewCounter("dust_http_requests_total",
			"Finished HTTP requests by endpoint and status class.",
			"endpoint", "class"),
		latency: r.NewHistogram("dust_http_request_seconds",
			"Request latency by endpoint, cache outcome (hit/miss on /search, none elsewhere), and status class.",
			nil, "endpoint", "cache", "class"),
		stage: r.NewHistogram("dust_search_stage_seconds",
			"Per-stage wall time of served (uncached) searches: encode, retrieve, score, align, diversify.",
			nil, "stage"),
		scanTables: r.NewCounter("dust_search_scan_tables_total",
			"Candidate tables of served (uncached) searches by exact-scan outcome: coded (cut by the matching's upper bound over the column codes, no float64 read; this includes a table cut on the bound the scan's first pass stored), bounded (cut by the matching's upper bound over the float64 cells, not scored), greedy (scored by distinct per-column maxima), matched (scored by the Hungarian step).",
			"outcome"),
		admissionWait: r.NewHistogram("dust_admission_wait_seconds",
			"Time admitted searches waited for an in-flight slot.",
			nil),
	}

	r.NewCounterFunc("dust_searches_total",
		"Searches served successfully, cached or not.", nil,
		func(emit func(float64, ...string)) { emit(float64(s.searches.Load())) })
	r.NewCounterFunc("dust_mutations_total",
		"Table mutations applied (PUT/DELETE /tables).", nil,
		func(emit func(float64, ...string)) { emit(float64(s.mutations.Load())) })
	r.NewCounterFunc("dust_rejected_total",
		"Searches shed by admission, deadline, or pipeline failure (client cancellations excluded).", nil,
		func(emit func(float64, ...string)) { emit(float64(s.rejected.Load())) })
	r.NewCounterFunc("dust_canceled_total",
		"Searches abandoned because the client went away.", nil,
		func(emit func(float64, ...string)) { emit(float64(s.canceled.Load())) })
	r.NewCounterFunc("dust_serve_degraded_total",
		"Searches answered by the degraded view (half the tables) under degraded admission.", nil,
		func(emit func(float64, ...string)) { emit(float64(s.degraded.Load())) })
	r.NewCounterFunc("dust_serve_shed_total",
		"Searches refused with 503 + Retry-After because the server was overloaded and no degraded mode was available.", nil,
		func(emit func(float64, ...string)) { emit(float64(s.shed.Load())) })

	r.NewGaugeFunc("dust_in_flight",
		"Searches currently executing in the pipeline.", nil,
		func(emit func(float64, ...string)) { emit(float64(len(s.sem))) })
	r.NewGaugeFunc("dust_in_flight_max",
		"Admission bound: the maximum concurrently executing searches.", nil,
		func(emit func(float64, ...string)) { emit(float64(cap(s.sem))) })
	r.NewGaugeFunc("dust_admission_waiting",
		"Searches currently waiting for an in-flight slot.", nil,
		func(emit func(float64, ...string)) { emit(float64(s.waiting.Load())) })

	r.NewCounterFunc("dust_cache_hits_total",
		"Result-cache hits.", nil,
		func(emit func(float64, ...string)) {
			h, _, _, _ := s.cache.Stats()
			emit(float64(h))
		})
	r.NewCounterFunc("dust_cache_misses_total",
		"Result-cache misses.", nil,
		func(emit func(float64, ...string)) {
			_, mi, _, _ := s.cache.Stats()
			emit(float64(mi))
		})
	r.NewGaugeFunc("dust_cache_entries",
		"Result-cache resident entries.", nil,
		func(emit func(float64, ...string)) {
			_, _, n, _ := s.cache.Stats()
			emit(float64(n))
		})
	r.NewGaugeFunc("dust_cache_bytes",
		"Result-cache resident bytes (keys + bodies + per-entry overhead).", nil,
		func(emit func(float64, ...string)) {
			_, _, _, b := s.cache.Stats()
			emit(float64(b))
		})

	r.NewGaugeFunc("dust_epoch",
		"Index mutation epoch of the published snapshot.", nil,
		func(emit func(float64, ...string)) { emit(float64(s.snap.Load().Epoch())) })
	r.NewGaugeFunc("dust_lake_tables",
		"Tables in the published snapshot's lake.", nil,
		func(emit func(float64, ...string)) { emit(float64(s.snap.Load().master.Lake().Stats().Tables)) })
	r.NewGaugeFunc("dust_lake_columns",
		"Columns in the published snapshot's lake.", nil,
		func(emit func(float64, ...string)) { emit(float64(s.snap.Load().master.Lake().Stats().Columns)) })
	r.NewGaugeFunc("dust_lake_tuples",
		"Tuples in the published snapshot's lake.", nil,
		func(emit func(float64, ...string)) { emit(float64(s.snap.Load().master.Lake().Stats().Tuples)) })
	r.NewGaugeFunc("dust_cosine_kernel",
		"Body of the cosine, encode, cluster and code kernels this process selected from its architecture and CPUID (avx2 or generic); same answers, the generic one several times slower under the distance matrix and the exact scan and about twice slower under every embedding.",
		[]string{"kernel"},
		func(emit func(float64, ...string)) { emit(1, vector.CosineKernel()) })

	r.NewCounterFunc("dust_embed_token_vectors_total",
		"Token vectors read by the encode kernel in this process (index build, PUTs and searches alike): hit = read from a token-vector table, miss = derived.",
		[]string{"result"},
		func(emit func(float64, ...string)) {
			hits, misses := embed.TokenVectorStats()
			emit(float64(hits), "hit")
			emit(float64(misses), "miss")
		})
	r.NewGaugeFunc("dust_embed_token_vector_bytes",
		"Bytes the encode kernel's token-vector tables hold (bounded: one 2 MB table plus GOMAXPROCS-1 of 512 KB, with tags and scratch).", nil,
		func(emit func(float64, ...string)) { emit(float64(embed.TokenVectorBytes())) })

	r.NewCounterFunc("dust_align_column_vectors_total",
		"Lake columns embedded for alignment in this process: hit = vector read back from the column-vector memo, miss = encoded and kept, unstorable = encoded against the request's corpus (a column over the token budget) and not kept; evicted = kept vectors dropped to stay within the memo's byte bound.",
		[]string{"result"},
		func(emit func(float64, ...string)) {
			n := align.ColumnVectorStats()
			emit(float64(n.Hits), "hit")
			emit(float64(n.Misses), "miss")
			emit(float64(n.Unstorable), "unstorable")
			emit(float64(n.Evicted), "evicted")
		})
	r.NewGaugeFunc("dust_align_column_vector_bytes",
		"Bytes of column vectors the alignment memo holds (bounded by a constant, 8 MiB).", nil,
		func(emit func(float64, ...string)) { emit(float64(align.ColumnVectorStats().Bytes)) })
	return m
}

// requestInfo carries per-request annotations from a handler back to the
// instrumentation wrapper: the cache outcome and, for served searches, the
// request's k, snapshot epoch, stage trace, and failure message.
type requestInfo struct {
	cache    string // "hit"/"miss"/"none" for /search, "" elsewhere
	k        int
	epoch    uint64
	isSearch bool
	degraded bool // answered by the degraded view under degraded admission
	trace    *search.Trace
	errMsg   string
}

// infoKey keys a *requestInfo in a request context.
type infoKey struct{}

func withInfo(ctx context.Context, info *requestInfo) context.Context {
	return context.WithValue(ctx, infoKey{}, info)
}

func infoFrom(ctx context.Context) *requestInfo {
	info, _ := ctx.Value(infoKey{}).(*requestInfo)
	if info == nil {
		// Handlers are only reachable through instrument, but a bare
		// handler call (tests) still gets a sink.
		info = &requestInfo{}
	}
	return info
}

// statusWriter captures the response status for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader implements http.ResponseWriter, recording the first status.
func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Status returns the response status, defaulting to 200 for handlers that
// wrote the body directly.
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// statusClass buckets a status code into its class label ("2xx".."5xx").
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return fmt.Sprintf("%dxx", code/100)
}

// instrument wraps a handler with the observability envelope: status
// capture, per-endpoint counters and latency histograms (split by the
// handler's cache annotation), per-stage histograms for served searches,
// and one structured JSON log line per request when request logging is on.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		info := &requestInfo{}
		h(sw, r.WithContext(withInfo(r.Context(), info)))
		dur := time.Since(t0)

		class := statusClass(sw.Status())
		cache := info.cache
		if cache == "" {
			cache = "none"
		}
		s.metrics.requests.With(endpoint, class).Inc()
		s.metrics.latency.With(endpoint, cache, class).Observe(dur.Seconds())
		if info.trace != nil {
			tr := info.trace
			s.metrics.stage.With("encode").Observe(float64(tr.EncodeNS.Load()) / 1e9)
			s.metrics.stage.With("retrieve").Observe(float64(tr.RetrieveNS.Load()) / 1e9)
			s.metrics.stage.With("score").Observe(float64(tr.ScoreNS.Load()) / 1e9)
			s.metrics.stage.With("align").Observe(float64(tr.AlignNS.Load()) / 1e9)
			s.metrics.stage.With("diversify").Observe(float64(tr.DiversifyNS.Load()) / 1e9)
			s.metrics.scanTables.With("coded").Add(uint64(tr.ScanCoded.Load()))
			s.metrics.scanTables.With("bounded").Add(uint64(tr.ScanBounded.Load()))
			s.metrics.scanTables.With("greedy").Add(uint64(tr.ScanGreedy.Load()))
			s.metrics.scanTables.With("matched").Add(uint64(tr.ScanMatched.Load()))
		}
		s.logRequest(r, endpoint, sw.Status(), dur, info)
	}
}

// stagesMS is the request-log rendering of a search.Trace, milliseconds
// per stage.
type stagesMS struct {
	Encode    float64 `json:"encode"`
	Retrieve  float64 `json:"retrieve"`
	Score     float64 `json:"score"`
	Align     float64 `json:"align"`
	Diversify float64 `json:"diversify"`
}

// requestLogLine is one structured request-log record; search-only fields
// are omitted elsewhere.
type requestLogLine struct {
	Time     string    `json:"time"`
	Method   string    `json:"method"`
	Path     string    `json:"path"`
	Endpoint string    `json:"endpoint"`
	Status   int       `json:"status"`
	DurMS    float64   `json:"dur_ms"`
	Cache    string    `json:"cache,omitempty"`
	Degraded bool      `json:"degraded,omitempty"`
	K        int       `json:"k,omitempty"`
	Epoch    *uint64   `json:"epoch,omitempty"`
	Stages   *stagesMS `json:"stages_ms,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// logRequest emits one JSON line for a finished request when request
// logging is configured (see WithRequestLog).
func (s *Server) logRequest(r *http.Request, endpoint string, status int, dur time.Duration, info *requestInfo) {
	if s.logw == nil {
		return
	}
	line := requestLogLine{
		Time:     time.Now().UTC().Format(time.RFC3339Nano),
		Method:   r.Method,
		Path:     r.URL.Path,
		Endpoint: endpoint,
		Status:   status,
		DurMS:    ms(dur),
		Cache:    info.cache,
		Degraded: info.degraded,
		K:        info.k,
		Error:    info.errMsg,
	}
	if info.isSearch {
		epoch := info.epoch
		line.Epoch = &epoch
	}
	if tr := info.trace; tr != nil {
		line.Stages = &stagesMS{
			Encode:    nsToMS(tr.EncodeNS.Load()),
			Retrieve:  nsToMS(tr.RetrieveNS.Load()),
			Score:     nsToMS(tr.ScoreNS.Load()),
			Align:     nsToMS(tr.AlignNS.Load()),
			Diversify: nsToMS(tr.DiversifyNS.Load()),
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	s.logmu.Lock()
	_, _ = s.logw.Write(buf)
	s.logmu.Unlock()
}

// ms converts a duration to milliseconds, rounded to microsecond grain so
// log lines stay compact.
func ms(d time.Duration) float64 { return nsToMS(d.Nanoseconds()) }

// nsToMS converts nanoseconds to milliseconds at microsecond grain.
func nsToMS(ns int64) float64 { return float64(ns/1000) / 1000 }

// Metrics returns the server's metric registry, for embedding callers that
// want to mount it elsewhere or register their own families alongside the
// serving ones. The registry is also served at GET /metrics.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// WithRequestLog enables structured request logging: one JSON line per
// finished request written to w (method, endpoint, status, duration, cache
// outcome, and per-stage pipeline timings for served searches). Writes are
// serialized by the server; w need not be concurrency-safe. nil (the
// default) disables request logging.
func WithRequestLog(w io.Writer) Option { return func(s *Server) { s.logw = w } }
