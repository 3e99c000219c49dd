// Parks: the paper's Figure 1 walkthrough. A similarity-based union search
// returns the tuples of the near-copy table (most unionable, Table (e));
// DUST returns novel parks from the renamed table (most diverse, Table
// (f)). This example runs both selections over the same unionable tuple
// pool — DUST through the pipeline, the similarity ranking over the pool
// it returns — and prints them side by side.
package main

import (
	"fmt"
	"log"
	"strings"

	"dust"
	"dust/internal/diversify"
	"dust/internal/embed"
	"dust/internal/experiments/baselines"
	"dust/internal/lake"
	"dust/internal/model"
	"dust/internal/table"
	"dust/internal/vector"
)

func buildLake() (*table.Table, *lake.Lake) {
	query := table.New("query", "Park Name", "Supervisor", "City", "Country")
	query.MustAppendRow("River Park", "Vera Onate", "Fresno", "USA")
	query.MustAppendRow("West Lawn Park", "Paul Veliotis", "Chicago", "USA")
	query.MustAppendRow("Hyde Park", "Jenny Rishi", "London", "UK")

	l := lake.New("fig1")

	// Table (b): mostly a copy of the query with one new tuple.
	b := table.New("table_b", "Park Name", "Supervisor", "Country")
	b.MustAppendRow("River Park", "Vera Onate", "USA")
	b.MustAppendRow("West Lawn Park", "Paul Veliotis", "USA")
	b.MustAppendRow("Hyde Park", "Jenny Rishi", "UK")
	l.MustAdd(b)

	// Table (c): paintings — shares only Country, not unionable.
	c := table.New("table_c", "Painting", "Medium", "Dimensions", "Date", "Country")
	c.MustAppendRow("Northern Lake", "Oil on canvas", "91.4 x 121.9 cm", "2006", "Canada")
	c.MustAppendRow("Memory Landscape 2", "Mixed media", "33 x 324 cm", "2018", "USA")
	l.MustAdd(c)

	// Table (d): unionable with renamed columns and new parks.
	d := table.New("table_d", "Park Name", "Park City", "Park Country", "Park Phone", "Supervised by")
	d.MustAppendRow("Chippewa Park", "Brandon, MN", "USA", "773 731-0380", "Tim Erickson")
	d.MustAppendRow("Lawler Park", "Chicago, IL", "USA", "773 284-7328", "Enrique Garcia")
	l.MustAdd(d)
	return query, l
}

func rows(t *table.Table) [][]string {
	out := make([][]string, t.NumRows())
	for i := range out {
		out[i] = t.Row(i)
	}
	return out
}

func printRow(row []string) { fmt.Println("   ", strings.Join(row, " | ")) }

func main() {
	query, l := buildLake()
	diverse, err := dust.New(l, dust.WithTopTables(2)).Search(query, 2)
	if err != nil {
		log.Fatal(err)
	}

	// Existing work (most unionable): rank the pooled tuples by similarity
	// to the query — the redundant copies win. Query and pool are embedded
	// with the pipeline's default tuple encoder.
	pool := diverse.Unioned
	enc := embed.NewRoBERTa(embed.WithAnisotropy(0.05))
	similar := baselines.TopTuples{}.Select(diversify.Problem{
		Query:  model.EncodeBatch(enc, pool.Headers(), rows(query), 0),
		Tuples: model.EncodeBatch(enc, pool.Headers(), rows(pool), 0),
		K:      2,
		Dist:   vector.CosineDistance,
	})
	fmt.Println("Existing work (most unionable) — Table (e):")
	for _, i := range similar {
		printRow(pool.Row(i))
	}

	// Our work (most diverse): DUST avoids tuples the query already has.
	fmt.Println("\nDUST (most diverse) — Table (f):")
	for i := 0; i < diverse.Tuples.NumRows(); i++ {
		printRow(diverse.Tuples.Row(i))
	}

	fmt.Println("\nnon-unionable table_c was ranked below the unionable tables:",
		strings.Join(diverse.UnionableTables, ", "))
}
