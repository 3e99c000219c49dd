package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"dust"
	"dust/internal/align"

	"dust/internal/embed"
	"dust/internal/obs"
	"dust/internal/region"
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
	// cache outcome ("hit"/"revalidated"/"miss" on /search, "none"
	// elsewhere and with the cache off) and status class — the cached and
	// computed paths differ by ~two orders of magnitude, so one merged
	// histogram would hide both.
	latency *obs.HistogramVec
	// stage is the per-stage search-latency histogram, one series per
	// search.Stage, from the request's search.Trace; cache hits skip the
	// pipeline and record no stages.
	stage *obs.HistogramVec
	// scanTables counts the candidate tables of uncached searches by how the
	// exact scan disposed of each (search.Trace's scan counts): the share
	// cut by the bound is what keeps the scan cheap, and it depends on the
	// traffic.
	scanTables *obs.CounterVec
	// admissionWait is the time admitted searches spent waiting for an
	// in-flight slot (shed requests are not recorded here; they show up in
	// the rejected counter).
	admissionWait *obs.HistogramVec
	// stale counts the cache entries from an older epoch than the
	// request's snapshot that a lookup found, by what became of each
	// (staleOutcomes).
	stale *obs.CounterVec
}

// staleHorizon is the stale outcome of an entry older than the snapshot's
// mutation log reaches: the outcomes past Revalidate's own.
const staleHorizon = dust.Outranked + 1

// staleOutcomes labels dust_cache_stale_total by outcome.
var staleOutcomes = [staleHorizon + 1]string{
	dust.Current: "revalidated", dust.TableRemoved: "table_removed",
	dust.Outranked: "outranked", staleHorizon: "horizon",
}

// newServerMetrics registers every serving metric against s.
func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	var stages []string
	for st := range search.NumStages {
		stages = append(stages, st.String())
	}
	m := &serverMetrics{
		reg: r,
		requests: r.NewCounter("dust_http_requests_total",
			"Finished HTTP requests by endpoint and status class.",
			"endpoint", "class"),
		latency: r.NewHistogram("dust_http_request_seconds",
			"Request latency by endpoint, cache outcome (hit/revalidated/miss on /search, none elsewhere), and status class.",
			nil, "endpoint", "cache", "class"),
		stage: r.NewHistogram("dust_search_stage_seconds",
			"Per-stage wall time of uncached searches that ran the pipeline, failed ones included (0 for a stage they never reached): "+strings.Join(stages, ", ")+".",
			nil, "stage"),
		scanTables: r.NewCounter("dust_search_scan_tables_total",
			"Candidate tables of uncached searches that ran the pipeline, failed ones included, by exact-scan outcome: coded (cut by the matching's upper bound over the column codes, no float64 read; this includes a table cut on the bound the scan's first pass stored), bounded (cut by the matching's upper bound over the float64 cells, not scored), greedy (scored by distinct per-column maxima), matched (scored by the Hungarian step).",
			"outcome"),
		admissionWait: r.NewHistogram("dust_admission_wait_seconds",
			"Time admitted searches waited for an in-flight slot.",
			nil),
		stale: r.NewCounter("dust_cache_stale_total",
			"Cache entries from an epoch older than the request's snapshot, by outcome: revalidated (served, re-stamped with the snapshot's epoch), table_removed (a table of the answer was removed since), outranked (a table added since ranks into the answer), horizon (more mutations since than the snapshot's log holds).",
			"outcome"),
	}
	for _, outcome := range staleOutcomes {
		m.stale.With(outcome)
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
		"Searches served from the result cache, revalidated ones included.", nil,
		func(emit func(float64, ...string)) {
			h, _, _, _ := s.cache.Stats()
			emit(float64(h))
		})
	r.NewCounterFunc("dust_cache_misses_total",
		"Searches that reached the result cache and were computed (one a request, whichever views it probed).", nil,
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
		"Token vectors read by the encode kernel in this process (index build, PUTs and searches alike): hit = read from a token-vector table or from an index build's hot set, miss = derived (the hot set's own derivations included).",
		[]string{"result"},
		func(emit func(float64, ...string)) {
			hits, misses := embed.TokenVectorStats()
			emit(float64(hits), "hit")
			emit(float64(misses), "miss")
		})
	r.NewGaugeFunc("dust_embed_token_vector_bytes",
		"Bytes the encode kernel's token-vector tables hold (bounded: one 2 MB table plus GOMAXPROCS-1 of 512 KB, with tags and scratch), plus, while an index build runs, its hot set (at most 4 MB of vectors, not held after the build).", nil,
		func(emit func(float64, ...string)) { emit(float64(embed.TokenVectorBytes())) })
	r.NewGaugeFunc("dust_scratch_bytes",
		"Bytes mapped outside the Go heap for searches' float scratch, listed for the next search or in use: the distance-matrix regions of DUST's cluster step (4·n² cells plus 8·n·dim unit rows for a pool of n rows after pruning) and the regions of the pool's tuple vectors (8·n·dim), at most one of each kind listed per processor, each sized to the largest request it has served; 0 where the platform cannot map them and they live on the heap.", nil,
		func(emit func(float64, ...string)) { emit(float64(region.ScratchBytes())) })
	r.NewGaugeFunc("dust_index_region_bytes",
		"Bytes mapped outside the Go heap for the blocks and codes of built and loaded indexes (8 bytes of embedding and 1 of code per stored element, one region per index, shared by its successors), counted until the collector finalizes a region no snapshot holds; 0 where the platform cannot map them and they live on the heap.", nil,
		func(emit func(float64, ...string)) { emit(float64(search.RegionBytes())) })

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
// instrumentation wrapper: the cache outcome and, for searches, the
// request's k, snapshot epoch, stage trace, and failure message.
type requestInfo struct {
	cache    string // "hit"/"revalidated"/"miss"/"none" for /search, "" elsewhere
	k        int
	epoch    *uint64 // the snapshot's, once a search loaded one
	degraded bool    // answered by the degraded view under degraded admission
	trace    *search.Trace
	errMsg   string
}

// infoKey keys a *requestInfo in a request context.
type infoKey struct{}

func withInfo(ctx context.Context, info *requestInfo) context.Context {
	return context.WithValue(ctx, infoKey{}, info)
}

// infoFrom returns the requestInfo instrument put in ctx; every handler is
// reached through instrument.
func infoFrom(ctx context.Context) *requestInfo { return ctx.Value(infoKey{}).(*requestInfo) }

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
// handler's cache annotation), per-stage histograms for searches that ran
// the pipeline, and one structured JSON log line per request when request
// logging is on.
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
		if tr := info.trace; tr != nil {
			for st := range search.NumStages {
				s.metrics.stage.With(st.String()).Observe(float64(tr.NS[st].Load()) / 1e9)
			}
			for exit, outcome := range scanOutcomes {
				s.metrics.scanTables.With(outcome).Add(uint64(tr.Scan[exit].Load()))
			}
		}
		s.logRequest(r, endpoint, sw.Status(), dur, info)
	}
}

// scanOutcomes labels dust_search_scan_tables_total by scan exit.
var scanOutcomes = [search.ScanExits]string{
	search.ScanCoded: "coded", search.ScanBounded: "bounded",
	search.ScanGreedy: "greedy", search.ScanMatched: "matched",
}

// requestLogLine is one structured request-log record; search-only fields
// are omitted elsewhere.
type requestLogLine struct {
	Time     string  `json:"time"`
	Method   string  `json:"method"`
	Path     string  `json:"path"`
	Endpoint string  `json:"endpoint"`
	Status   int     `json:"status"`
	DurMS    float64 `json:"dur_ms"`
	Cache    string  `json:"cache,omitempty"`
	Degraded bool    `json:"degraded,omitempty"`
	K        int     `json:"k,omitempty"`
	Epoch    *uint64 `json:"epoch,omitempty"`
	// Stages is milliseconds per search.Stage, keyed by its name.
	Stages map[string]float64 `json:"stages_ms,omitempty"`
	Error  string             `json:"error,omitempty"`
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
		Epoch:    info.epoch,
		Error:    info.errMsg,
	}
	if tr := info.trace; tr != nil {
		line.Stages = make(map[string]float64, search.NumStages)
		for st := range search.NumStages {
			line.Stages[st.String()] = nsToMS(tr.NS[st].Load())
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
// outcome, and per-stage pipeline timings for searches that ran the
// pipeline). Writes are serialized by the server; w need not be
// concurrency-safe. nil (the default) disables request logging.
func WithRequestLog(w io.Writer) Option { return func(s *Server) { s.logw = w } }
