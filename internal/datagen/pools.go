// Package datagen generates the synthetic benchmark corpus that stands in
// for the paper's Open-Data-derived benchmarks (TUS, SANTOS, UGEN-V1, and
// the IMDB case study). The real benchmarks are themselves produced by
// selecting and projecting rows/columns of base tables (paper §6.1); this
// package implements the same generation procedure over a synthetic
// multi-domain base corpus, at laptop scale.
//
// Two corpus properties matter for reproducing the paper's results and are
// deliberate:
//
//   - Cross-domain vocabulary overlap: cities, countries, years, and person
//     names are shared across every domain, so raw value-token similarity is
//     a weak unionability signal (this keeps the pre-trained baselines of
//     Fig. 6 near coin-toss).
//   - Header synonym renaming: generated tables rename columns from a
//     synonym pool ("Supervisor" vs "Supervised by", "City" vs "Park City",
//     as in the paper's Fig. 1), so alignment and the fine-tuned model must
//     learn synonymy rather than string-match headers.
package datagen

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Shared vocabulary pools (used by every domain).
var (
	firstNames = []string{
		"Vera", "Paul", "Jenny", "Tim", "Enrique", "Aisha", "Chen", "Maria",
		"Liam", "Noah", "Olivia", "Emma", "Raj", "Fatima", "Igor", "Sofia",
		"Kwame", "Yuki", "Lucas", "Nora", "Diego", "Amara", "Felix", "Ines",
	}
	lastNames = []string{
		"Onate", "Veliotis", "Rishi", "Erickson", "Garcia", "Khan", "Wang",
		"Silva", "Brown", "Martin", "Dubois", "Rossi", "Novak", "Tanaka",
		"Okafor", "Larsen", "Petrov", "Moreau", "Santos", "Iyer", "Berg",
	}
	cityRecords = []struct{ City, Region, Country string }{
		{"Fresno", "CA", "USA"}, {"Chicago", "IL", "USA"}, {"Brandon", "MN", "USA"},
		{"Austin", "TX", "USA"}, {"Portland", "OR", "USA"}, {"Denver", "CO", "USA"},
		{"London", "LDN", "UK"}, {"Leeds", "YKS", "UK"}, {"Bristol", "BST", "UK"},
		{"Toronto", "ON", "Canada"}, {"Waterloo", "ON", "Canada"}, {"Vancouver", "BC", "Canada"},
		{"Sydney", "NSW", "Australia"}, {"Perth", "WA", "Australia"},
		{"Tampere", "PIR", "Finland"}, {"Helsinki", "UUS", "Finland"},
		{"Munich", "BY", "Germany"}, {"Hamburg", "HH", "Germany"},
		{"Lyon", "ARA", "France"}, {"Nice", "PAC", "France"},
		{"Osaka", "OSK", "Japan"}, {"Kyoto", "KYT", "Japan"},
		{"Pune", "MH", "India"}, {"Jaipur", "RJ", "India"},
	}
	countries = []string{
		"USA", "UK", "Canada", "Australia", "Finland", "Germany", "France",
		"Japan", "India", "Brazil", "Mexico", "Spain",
	}
	languages = []string{
		"English", "French", "German", "Japanese", "Hindi", "Spanish",
		"Portuguese", "Finnish", "Mandarin", "Arabic", "Korean", "Italian",
		"Swedish", "Dutch", "Turkish", "Polish", "Thai", "Swahili",
		"Tagalog", "Bengali",
	}
)

// pick returns a uniform random element of pool.
func pick[T any](r *rand.Rand, pool []T) T {
	return pool[r.Intn(len(pool))]
}

// person returns a random "First Last" name.
func person(r *rand.Rand) string {
	return pick(r, firstNames) + " " + pick(r, lastNames)
}

// year returns a random year in [lo, hi].
func year(r *rand.Rand, lo, hi int) string {
	return strconv.Itoa(lo + r.Intn(hi-lo+1))
}

// money returns a random dollar amount like "$12,400,000".
func money(r *rand.Rand, loM, hiM int) string {
	m := loM + r.Intn(hiM-loM+1)
	return fmt.Sprintf("$%d,%d00,000", m/10, m%10)
}

// count returns a random integer in [lo, hi] as a string.
func count(r *rand.Rand, lo, hi int) string {
	return strconv.Itoa(lo + r.Intn(hi-lo+1))
}

// phone returns a random US-style phone number.
func phone(r *rand.Rand) string {
	return fmt.Sprintf("%d %d-%04d", 700+r.Intn(300), 200+r.Intn(800), r.Intn(10000))
}

// date returns a random ISO date in [loYear, hiYear].
func date(r *rand.Rand, loYear, hiYear int) string {
	return year(r, loYear, hiYear) + "-" + zeroPad(1+r.Intn(12), 2) + "-" + zeroPad(1+r.Intn(28), 2)
}

// zeroPad is fmt.Sprintf("%0*d", width, n) for n >= 0.
func zeroPad(n, width int) string {
	s := strconv.Itoa(n)
	if len(s) >= width {
		return s
	}
	return strings.Repeat("0", width-len(s)) + s
}

// compound builds an entity name "Adjective Noun Suffix" from pools.
func compound(r *rand.Rand, adjectives, nouns []string, suffix string) string {
	name := pick(r, adjectives) + " " + pick(r, nouns)
	if suffix != "" {
		name += " " + suffix
	}
	return name
}
