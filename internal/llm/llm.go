// Package llm simulates the paper's GPT-3 baseline (§6.5.1): a generator
// that, given a query table, produces k "diverse unionable tuples". The
// real model is unavailable offline, so the simulator reproduces the two
// behaviours the paper measures:
//
//   - Quality decay: "for a given query, the LLM generates a few diverse
//     tuples but subsequently it produces redundant ones" — the simulator
//     emits novel template-combinations first and degenerates into
//     near-duplicates as generation proceeds.
//   - Token limits: the paper could not run the LLM on SANTOS because large
//     query tables exceed the prompt budget; the simulator enforces a token
//     budget and fails the same way.
package llm

import (
	"fmt"
	"strings"

	"dust/internal/table"
	"dust/internal/tokenize"
)

// Prompt is the prompt template of Appendix A.2.4, kept verbatim so the
// simulated baseline documents what it stands in for.
const Prompt = `Given the following query table: {Table}
Generate {k} new tuples that are unionable to the query table. The
generated tuples should be non-redundant and diverse with respect to the
existing tuples. Return the tuples in pipe-separated format as the query
table.`

// Generator simulates the LLM.
type Generator struct {
	// TokenBudget is the prompt capacity. The paper's GPT-3 baseline hits
	// its input token limit on query tables with many tuples; generation
	// fails when serializing the query exceeds the budget.
	TokenBudget int
	// NoveltyWindow is how many generations stay novel before the output
	// degenerates into near-duplicates of earlier generations.
	NoveltyWindow int
	Seed          uint64
}

// New returns a Generator with GPT-3-flavoured defaults.
func New() *Generator {
	return &Generator{TokenBudget: 2048, NoveltyWindow: 8, Seed: 7}
}

// ErrTokenLimit reports that the query table does not fit the prompt.
type ErrTokenLimit struct {
	Needed, Budget int
}

func (e ErrTokenLimit) Error() string {
	return fmt.Sprintf("llm: query table needs %d prompt tokens, budget is %d", e.Needed, e.Budget)
}

// Generate produces k tuples unionable with the query table, or
// ErrTokenLimit when the serialized query exceeds the budget.
func (g *Generator) Generate(query *table.Table, k int) ([]table.Tuple, error) {
	needed := g.promptTokens(query)
	if needed > g.TokenBudget {
		return nil, ErrTokenLimit{Needed: needed, Budget: g.TokenBudget}
	}
	// Column value pools harvested from the query: the LLM recombines and
	// lightly mutates what it has seen in the prompt.
	pools := make([][]string, query.NumCols())
	for c := range pools {
		pools[c] = query.Columns[c].Values
	}
	state := g.Seed
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}

	out := make([]table.Tuple, 0, k)
	for i := 0; i < k; i++ {
		row := make(table.Tuple, query.NumCols())
		if i < g.NoveltyWindow || len(out) == 0 {
			// Novel phase: fresh recombination of pool values with a
			// synthetic twist on the first column.
			for c := range row {
				if len(pools[c]) == 0 {
					row[c] = table.Null
					continue
				}
				row[c] = pools[c][next(len(pools[c]))]
			}
			if len(row) > 0 && row[0] != table.Null {
				row[0] = fmt.Sprintf("New %s %d", row[0], i+1)
			}
		} else {
			// Degenerate phase: repeat an earlier generation with a
			// cosmetic suffix — redundant content.
			base := out[next(len(out))]
			copy(row, base)
			if len(row) > 0 {
				row[0] = strings.TrimSuffix(base[0], " (again)") + " (again)"
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// promptTokens estimates the prompt size for a query table: the template
// plus every cell's tokens.
func (g *Generator) promptTokens(query *table.Table) int {
	n := len(tokenize.Words(Prompt))
	for _, col := range query.Columns {
		n += len(tokenize.Words(col.Name))
		for _, v := range col.Values {
			n += len(tokenize.Words(v)) + 1 // +1 for the separator
		}
	}
	return n
}
