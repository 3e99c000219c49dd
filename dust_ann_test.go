package dust

import (
	"testing"

	"dust/internal/search"
)

// TestPipelineANNParity pins the -ann serving contract the CI smoke also
// asserts over HTTP: on a lake small enough that the oversampled candidate
// pool covers it, the ANN pipeline returns exactly what the exact pipeline
// returns — same tables, same diverse tuples — while a distinct ConfigTag
// keeps epoch-keyed result caches from ever conflating the two plans.
func TestPipelineANNParity(t *testing.T) {
	b, q := benchLake(t)
	exact := New(b.Lake, WithTopTables(5))
	approx := New(b.Lake, WithTopTables(5), WithRetriever(search.ANN))

	if exact.ConfigTag() == approx.ConfigTag() {
		t.Fatalf("exact and ANN pipelines share a config tag: %q", exact.ConfigTag())
	}
	want, err := exact.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := approx.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "ann vs exact on a covered lake", got, want)
}
