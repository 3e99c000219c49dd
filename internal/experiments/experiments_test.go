package experiments

import (
	"slices"
	"strings"
	"testing"
)

var quick = Config{Quick: true}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 12 {
		t.Fatalf("registry has %d experiments, want >= 12 (every table and figure)", len(all))
	}
	seen := map[string]bool{}
	for _, r := range all {
		if seen[r.Name] {
			t.Errorf("duplicate experiment %q", r.Name)
		}
		seen[r.Name] = true
		if r.Artifact == "" || r.Run == nil {
			t.Errorf("experiment %q incomplete", r.Name)
		}
	}
	for _, want := range []string{"fig2", "fig5", "table1", "fig6", "table2", "fig7", "table3", "fig8", "fig10", "fig11", "prune"} {
		if !seen[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
	if _, err := Get("fig6"); err != nil {
		t.Errorf("Get(fig6) error: %v", err)
	}
	if _, err := Get("nope"); err == nil {
		t.Error("Get(nope) should error")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{Title: "T", Columns: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddRow("333", "4")
	r.Note("hello %d", 5)
	s := r.String()
	for _, want := range []string{"== T ==", "a    bb", "333", "note: hello 5"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q in:\n%s", want, s)
		}
	}
}

func TestFig5Shapes(t *testing.T) {
	r := Fig5(quick)
	if len(r.Rows) != 5 {
		t.Fatalf("Fig5 rows = %d, want 5 benchmarks", len(r.Rows))
	}
	if r.Rows[0][0] != "tus" {
		t.Errorf("first benchmark = %q, want tus", r.Rows[0][0])
	}
}

// knownGaps are the shape checks that have failed in -quick since the seed,
// matched exactly: a third FAIL fails TestShapeChecks, and so does a listed
// gap whose digits move or that starts passing. Close one by fixing the
// runner and deleting its line here.
var knownGaps = map[string][]string{
	// Holistic Starmie alignment trails bipartite by 0.005 F1 on the quick
	// corpus; the paper has it ahead.
	"table1": {"shape starmie(H)>starmie(B): FAIL (0.926 vs 0.931)"},
	// DUST adds 17 unique titles at k=30 where Starmie-D adds 20; the paper
	// has DUST ~25% ahead.
	"fig8": {"shape dust >= starmie-d on titles at k=30: FAIL (17 vs 20)"},
}

// TestShapeChecks runs every registered experiment in -quick and fails on
// any "shape ...: FAIL" note that is not a known gap.
func TestShapeChecks(t *testing.T) {
	wantRows := map[string]int{"fig6": 6, "fig12": 10} // models; 5 per method
	for _, r := range All() {
		t.Run(r.Name, func(t *testing.T) {
			rep := r.Run(quick)
			if want, ok := wantRows[r.Name]; ok && len(rep.Rows) != want {
				t.Fatalf("%s rows = %d, want %d", r.Name, len(rep.Rows), want)
			}
			var failed []string
			for _, n := range rep.Notes {
				if strings.Contains(n, "FAIL") {
					failed = append(failed, n)
				}
			}
			if !slices.Equal(failed, knownGaps[r.Name]) {
				t.Errorf("%s: failed shape checks\n got  %q\n want %q (knownGaps)", rep.Title, failed, knownGaps[r.Name])
			}
		})
	}
}
