package experiments

import "testing"

func TestFig11ProducesAllPValues(t *testing.T) {
	r := Fig11(quick)
	if len(r.Rows) != 10 {
		t.Fatalf("Fig11 rows = %d, want 10 (p=1..5 on two benchmarks)", len(r.Rows))
	}
}

func TestTable2RandomDUSTWins(t *testing.T) {
	r := Table2Random(quick)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// DUST must beat best-of-5 random on at least half the queries.
	for _, row := range r.Rows {
		if row[2] == "0" && row[3] == "0" {
			t.Errorf("DUST won nothing vs random on %s", row[0])
		}
	}
}
