// Serve: a self-contained walkthrough of the dustserve HTTP subsystem. It
// builds a synthetic lake, starts an in-process server, and then plays a
// client session against it: an uncached search, a cached repeat of the
// same search (same epoch, same fingerprint), a live PUT of a new table
// (snapshot swap, epoch bump), and a post-mutation repeat, which the cache
// answers only if the new table leaves the answer as it was (a revalidated
// hit, re-stamped with the new epoch) and computes afresh otherwise. It
// finishes with the server's /stats counters.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"dust"
	"dust/internal/datagen"
	"dust/internal/serve"
	"dust/internal/table"
)

func main() {
	b := datagen.Generate("serve-demo", datagen.Config{
		Seed: 7, Domains: 4, TablesPerBase: 5, BaseRows: 60, MinRows: 15, MaxRows: 30,
	})
	query := b.Queries[0]

	// Hold one table out of the lake so the walkthrough can add it live.
	names := b.Lake.Names()
	held := b.Lake.Get(names[len(names)-1])
	if err := b.Lake.Remove(held.Name); err != nil {
		log.Fatal(err)
	}

	p := dust.New(b.Lake, dust.WithTopTables(5))
	srv := serve.New(p, serve.WithMaxInFlight(4), serve.WithTimeout(10*time.Second))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(ln, srv) }()
	base := "http://" + ln.Addr().String()
	fmt.Println("serving on", base)

	search := func(label string) {
		body, _ := json.Marshal(map[string]any{
			"query": map[string]any{"headers": query.Headers(), "rows": rows(query)},
			"k":     5,
		})
		start := time.Now()
		resp, err := http.Post(base+"/search", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		var out struct {
			Epoch  uint64   `json:"epoch"`
			Cached bool     `json:"cached"`
			Tables []string `json:"tables"`
			Pool   int      `json:"pool"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		fmt.Printf("%-22s status=%d epoch=%d cached=%-5v pool=%-4d in %v\n",
			label, resp.StatusCode, out.Epoch, out.Cached, out.Pool, time.Since(start).Round(time.Microsecond))
	}

	search("search (cold)")
	search("search (cache hit)")

	// Live mutation: PUT the held-out table. The snapshot swap bumps the
	// epoch without blocking any in-flight search.
	tb, _ := json.Marshal(map[string]any{"headers": held.Headers(), "rows": rows(held)})
	req, _ := http.NewRequest(http.MethodPut, base+"/tables/"+held.Name, bytes.NewReader(tb))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	var mut struct {
		Epoch  uint64 `json:"epoch"`
		Tables int    `json:"tables"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mut); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("%-22s status=%d epoch=%d tables=%d\n", "put "+held.Name, resp.StatusCode, mut.Epoch, mut.Tables)

	search("search (new epoch)")
	search("search (cache hit)")

	stats, err := http.Get(base + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	var st struct {
		Epoch     uint64 `json:"epoch"`
		Tables    int    `json:"tables"`
		Searches  uint64 `json:"searches"`
		Mutations uint64 `json:"mutations"`
		Cache     struct {
			Hits        uint64 `json:"hits"`
			Misses      uint64 `json:"misses"`
			Revalidated uint64 `json:"revalidated"`
			Entries     int    `json:"entries"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(stats.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	stats.Body.Close()
	fmt.Printf("stats: epoch=%d tables=%d searches=%d mutations=%d cache hits=%d (revalidated %d) misses=%d entries=%d\n",
		st.Epoch, st.Tables, st.Searches, st.Mutations, st.Cache.Hits, st.Cache.Revalidated, st.Cache.Misses, st.Cache.Entries)
}

func rows(t *table.Table) [][]string {
	out := make([][]string, t.NumRows())
	for i := range out {
		out[i] = t.Row(i)
	}
	return out
}
