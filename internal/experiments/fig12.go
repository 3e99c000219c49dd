package experiments

import (
	"strings"

	"dust"
	"dust/internal/experiments/baselines"
	"dust/internal/lake"
	"dust/internal/table"
)

// Fig12 reproduces the anecdotal mythology comparison (Appendix A.2.5):
// Starmie's similarity ranking returns tuples repeating the query's Greek
// creatures, while DUST returns creatures with new names and new origins.
func Fig12(cfg Config) *Report {
	query := table.New("mythology_query", "Myth", "Definition", "Synonyms", "Origin")
	query.MustAppendRow("Chimera", "Monstrous", "Fabulous creature", "Greek")
	query.MustAppendRow("Siren", "Half-human", "Harpy, Lorelei", "Greek")
	query.MustAppendRow("Basilisk", "King serpent", "Cockatrice", "Greek, Roman")
	query.MustAppendRow("Minotaur", "Human-bull", "Man bull, Asterius", "Greek")
	query.MustAppendRow("Cyclops", "One-eyed", "Polyphemus", "Greek")

	l := lake.New("myths")
	t1 := table.New("greek_myths", "Myth", "Definition", "Synonyms", "Origin")
	t1.MustAppendRow("Minotaur", "Human-bull", "Man bull, Asterius", "Greek")
	t1.MustAppendRow("Chimera", "Monstrous", "Fabulous creature", "Greek")
	t1.MustAppendRow("Basilisk", "King serpent", "Cockatrice", "Greek, Roman")
	t1.MustAppendRow("Griffon", "Winged lion", "Perseus, Chimaera", "Greek")
	t1.MustAppendRow("Minotaur", "Half bull", "-", "Greek")
	l.MustAdd(t1)
	t2 := table.New("world_myths", "Creature", "Description", "Also Known As", "Culture")
	t2.MustAppendRow("Mugo", "Forest dweller", "Tenkou", "Japanese")
	t2.MustAppendRow("Kasha", "Fire-cart", "Bikuni-Kasha", "Japanese")
	t2.MustAppendRow("Succubus", "Female demon", "Lilin, Incubus", "Jewish, Christian")
	t2.MustAppendRow("Hag", "Witch", "Baba Yaga", "Scottish")
	t2.MustAppendRow("Wendigo", "Hungering ghost", "Witiko", "Algonquian")
	l.MustAdd(t2)

	r := &Report{
		Title:   "Fig. 12 — Mythology anecdote: Starmie vs DUST top-5",
		Columns: []string{"Method", "Myth", "Definition", "Origin"},
	}
	queryNames := map[string]bool{}
	for _, v := range query.Columns[0].Values {
		queryNames[v] = true
	}
	starmieRepeats, dustRepeats := 0, 0
	origins := map[string]bool{}

	ts := baselines.NewTupleSearch(l.Tables(), 0)
	for _, h := range ts.TopK(query, 5) {
		row := h.Table.Row(h.Row)
		r.AddRow("starmie", row[0], row[1], row[3])
		if queryNames[row[0]] {
			starmieRepeats++
		}
	}
	res, err := dust.New(l, dust.WithTopTables(2)).Search(query, 5)
	if err != nil {
		r.Note("pipeline error: %v", err)
		return r
	}
	for i := 0; i < res.Tuples.NumRows(); i++ {
		row := res.Tuples.Row(i)
		r.AddRow("dust", row[0], row[1], row[3])
		if queryNames[row[0]] {
			dustRepeats++
		}
		if o := strings.TrimSpace(row[3]); o != "" {
			origins[o] = true
		}
	}
	r.Note("paper shape: Starmie's top tuples repeat query creatures; DUST adds new creatures and non-Greek origins")
	r.Note("shape starmie repeats more query creatures: %s (%d vs %d)",
		passFail(starmieRepeats > dustRepeats), starmieRepeats, dustRepeats)
	nonGreek := 0
	for o := range origins {
		if !strings.Contains(o, "Greek") {
			nonGreek++
		}
	}
	r.Note("shape dust adds non-Greek origins: %s (%d distinct)", passFail(nonGreek >= 2), nonGreek)
	return r
}
