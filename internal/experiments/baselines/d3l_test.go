package baselines

import (
	"math"
	"testing"
)

func TestHeaderSimilarity(t *testing.T) {
	if got := headerSimilarity("Park Name", "Park Name"); got != 1 {
		t.Errorf("identical headers similarity = %v", got)
	}
	if got := headerSimilarity("Park Name", "Name of Park"); got <= 0.3 {
		t.Errorf("overlapping headers similarity = %v, want > 0.3", got)
	}
	if got := headerSimilarity("Budget", "Species"); got != 0 {
		t.Errorf("disjoint headers similarity = %v, want 0", got)
	}
}

func TestFormatProfile(t *testing.T) {
	phoneProfile := profileFormat([]string{"773 731-0380", "773 284-7328"})
	nameProfile := profileFormat([]string{"River Park", "Hyde Park"})
	moneyProfile := profileFormat([]string{"$12,300,000", "$8,100,000"})
	if s := phoneProfile.similarity(moneyProfile); s >= phoneProfile.similarity(profileFormat([]string{"771 555-0100"})) {
		t.Errorf("phone should be closer to phone than to money (got %v)", s)
	}
	if s := nameProfile.similarity(phoneProfile); s > 0.8 {
		t.Errorf("name/phone format similarity = %v, want < 0.8", s)
	}
	empty := profileFormat(nil)
	if empty.similarity(empty) < 0.99 {
		t.Error("empty profiles should be similar to themselves")
	}
}

func TestNumericProfile(t *testing.T) {
	a := profileNumeric([]string{"10", "12", "11"})
	b := profileNumeric([]string{"11", "13", "10"})
	c := profileNumeric([]string{"90000", "120000"})
	text := profileNumeric([]string{"hello", "world"})
	if a.similarity(b) <= a.similarity(c) {
		t.Error("close numeric distributions should be more similar than distant ones")
	}
	if text.frac != 0 {
		t.Errorf("text column numeric fraction = %v", text.frac)
	}
	if a.similarity(text) > 0.5 {
		t.Errorf("numeric/text similarity = %v, want low", a.similarity(text))
	}
	// "nan" is a null token of the generated lakes, not a number: a column
	// holding one has the moments of the same column without it.
	clean := profileNumeric([]string{"10", "12", "11"})
	withNaN := profileNumeric([]string{"10", "nan", "12", "11"})
	if withNaN.mean != clean.mean || withNaN.std != clean.std || withNaN.frac != 0.75 {
		t.Errorf("profile with a nan cell = %+v, want %+v at frac 0.75", withNaN, clean)
	}
}

func TestParseNumber(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"42", 42, true},
		{"$1,200", 1200, true},
		{" 3.5 ", 3.5, true},
		{"abc", 0, false},
		{"", 0, false},
		{"nan", 0, false},
		{"NaN", 0, false},
		{"inf", 0, false},
		{"-Inf", 0, false},
		{"+Infinity", 0, false},
	}
	for _, c := range cases {
		got, ok := parseNumber(c.in)
		if ok != c.ok || (ok && math.Abs(got-c.want) > 1e-12) {
			t.Errorf("parseNumber(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}
