package llm

import (
	"errors"
	"strings"
	"testing"

	"dust/internal/table"
)

func smallQuery() *table.Table {
	q := table.New("q", "Park Name", "City", "Country")
	q.MustAppendRow("River Park", "Fresno", "USA")
	q.MustAppendRow("Hyde Park", "London", "UK")
	q.MustAppendRow("Lawler Park", "Chicago", "USA")
	return q
}

func TestGenerateShapeAndDeterminism(t *testing.T) {
	g := New()
	a, err := g.Generate(smallQuery(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 6 {
		t.Fatalf("generated %d tuples, want 6", len(a))
	}
	for i, row := range a {
		if len(row) != 3 {
			t.Errorf("tuple %d arity %d, want 3", i, len(row))
		}
	}
	b, _ := New().Generate(smallQuery(), 6)
	for i := range a {
		if strings.Join(a[i], "|") != strings.Join(b[i], "|") {
			t.Fatal("generation nondeterministic")
		}
	}
}

func TestNoveltyDecay(t *testing.T) {
	g := New()
	g.NoveltyWindow = 3
	tuples, err := g.Generate(smallQuery(), 10)
	if err != nil {
		t.Fatal(err)
	}
	// Early tuples carry the "New ..." novel marker; late ones the
	// redundant "(again)" marker.
	novel, redundant := 0, 0
	for i, row := range tuples {
		if strings.HasSuffix(row[0], "(again)") {
			redundant++
			continue
		}
		novel++
		if i >= 3 {
			t.Errorf("tuple %d novel after the novelty window", i)
		}
	}
	if novel != 3 {
		t.Errorf("novel tuples = %d, want 3", novel)
	}
	if redundant != 7 {
		t.Errorf("redundant tuples = %d, want 7", redundant)
	}
}

func TestTokenLimit(t *testing.T) {
	g := New()
	g.TokenBudget = 10
	_, err := g.Generate(smallQuery(), 3)
	var limit ErrTokenLimit
	if !errors.As(err, &limit) {
		t.Fatalf("err = %v, want ErrTokenLimit", err)
	}
	if limit.Budget != 10 || limit.Needed <= 10 {
		t.Errorf("limit = %+v", limit)
	}
	if limit.Error() == "" {
		t.Error("empty error message")
	}
}

func TestLargeQueryExceedsDefaultBudget(t *testing.T) {
	// A SANTOS-sized query table (hundreds of rows) must not fit, matching
	// the paper's exclusion of the LLM baseline on SANTOS.
	q := table.New("big", "a", "b", "c", "d", "e")
	for i := 0; i < 500; i++ {
		q.MustAppendRow("some moderately long value", "another value here", "third column text", "fourth", "fifth")
	}
	if _, err := New().Generate(q, 10); err == nil {
		t.Error("500-row query should exceed the default token budget")
	}
}

func TestPromptDocumented(t *testing.T) {
	for _, want := range []string{"{Table}", "{k}", "unionable", "non-redundant"} {
		if !strings.Contains(Prompt, want) {
			t.Errorf("prompt missing %q", want)
		}
	}
}
