// Mythology: the paper's Fig. 12 anecdote. A mythology query table is
// searched against a small lake; Starmie's top tuples repeat creatures the
// query already lists (Minotaur, Chimera, Basilisk), while DUST surfaces
// new creatures from other cultures.
package main

import (
	"fmt"
	"log"
	"strings"

	"dust"
	"dust/internal/experiments/baselines"
	"dust/internal/lake"
	"dust/internal/table"
)

func main() {
	query := table.New("mythology_query", "Myth", "Definition", "Synonyms", "Origin")
	query.MustAppendRow("Chimera", "Monstrous", "Fabulous creature", "Greek")
	query.MustAppendRow("Siren", "Half-human", "Harpy, Lorelei", "Greek")
	query.MustAppendRow("Basilisk", "King serpent", "Cockatrice", "Greek, Roman")
	query.MustAppendRow("Minotaur", "Human-bull", "Man bull, Asterius", "Greek")
	query.MustAppendRow("Cyclops", "One-eyed", "Polyphemus", "Greek")

	l := lake.New("myths")
	// A redundant table: overlaps the query heavily.
	t1 := table.New("greek_myths", "Myth", "Definition", "Synonyms", "Origin")
	t1.MustAppendRow("Minotaur", "Human-bull", "Man bull, Asterius", "Greek")
	t1.MustAppendRow("Chimera", "Monstrous", "Fabulous creature", "Greek")
	t1.MustAppendRow("Basilisk", "King serpent", "Cockatrice", "Greek, Roman")
	t1.MustAppendRow("Griffon", "Winged lion", "Perseus, Chimaera", "Greek")
	t1.MustAppendRow("Minotaur", "Half bull", "-", "Greek")
	l.MustAdd(t1)
	// A novel table: creatures from other cultures.
	t2 := table.New("world_myths", "Creature", "Description", "Also Known As", "Culture")
	t2.MustAppendRow("Mugo", "Forest dweller", "Tenkou", "Japanese")
	t2.MustAppendRow("Kasha", "Fire-cart", "Bikuni-Kasha", "Japanese")
	t2.MustAppendRow("Succubus", "Female demon", "Lilin, Incubus", "Jewish, Christian")
	t2.MustAppendRow("Hag", "Witch", "Baba Yaga", "Scottish")
	t2.MustAppendRow("Wendigo", "Hungering ghost", "Witiko", "Algonquian")
	l.MustAdd(t2)

	// Starmie tuple search: similarity ranking over all lake tuples.
	ts := baselines.NewTupleSearch(l.Tables(), 0)
	fmt.Println("Starmie top-5 (similarity ranking):")
	for _, h := range ts.TopK(query, 5) {
		fmt.Println("   ", strings.Join(h.Table.Row(h.Row), " | "))
	}

	// DUST: diverse unionable tuples.
	res, err := dust.New(l, dust.WithTopTables(2)).Search(query, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nDUST top-5 (diverse):")
	for i := 0; i < res.Tuples.NumRows(); i++ {
		fmt.Println("   ", strings.Join(res.Tuples.Row(i), " | "))
	}
	fmt.Println("\nNote how Starmie's list repeats the query's Greek creatures while")
	fmt.Println("DUST's list adds new creatures and new origins (Fig. 12).")
}
