package query

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"smokescreen/internal/estimate"
	"smokescreen/internal/scene"
)

func mustParse(t *testing.T, input string) *Query {
	t.Helper()
	q, err := Parse(input)
	if err != nil {
		t.Fatalf("Parse(%q): %v", input, err)
	}
	return q
}

func TestParseBasicAvg(t *testing.T) {
	q := mustParse(t, "SELECT AVG(count(car)) FROM night-street USING mask-rcnn SAMPLE 0.1")
	if q.Agg != estimate.AVG || q.Class != scene.Car || q.Dataset != "night-street" {
		t.Fatalf("parsed %+v", q)
	}
	if q.Model != "mask-rcnn" || q.Setting.SampleFraction != 0.1 {
		t.Fatalf("parsed %+v", q)
	}
	if q.Delta != 0.05 || q.R != 0.99 {
		t.Fatalf("defaults wrong: %+v", q)
	}
}

func TestParseVar(t *testing.T) {
	q := mustParse(t, "SELECT VAR(count(car)) FROM small SAMPLE 0.5")
	if q.Agg != estimate.VAR || q.Class != scene.Car {
		t.Fatalf("parsed %+v", q)
	}
}

func TestParseNoise(t *testing.T) {
	q := mustParse(t, "SELECT AVG(count(car)) FROM small NOISE 0.1")
	if q.Setting.NoiseSigma != 0.1 {
		t.Fatalf("noise %v", q.Setting.NoiseSigma)
	}
	if !strings.Contains(q.String(), "NOISE 0.1") {
		t.Fatalf("String() = %q", q.String())
	}
	if _, err := Parse("SELECT AVG(count(car)) FROM small NOISE 0.9"); err == nil {
		t.Fatal("absurd noise accepted")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q := mustParse(t, "select avg(count(car)) from small sample 0.5")
	if q.Agg != estimate.AVG || q.Setting.SampleFraction != 0.5 {
		t.Fatalf("parsed %+v", q)
	}
}

func TestParseCountWithPredicate(t *testing.T) {
	q := mustParse(t, "SELECT COUNT(*) FROM ua-detrac WHERE count(car) >= 3 USING yolov4 SAMPLE 0.05")
	if q.Agg != estimate.COUNT || q.Predicate == nil {
		t.Fatalf("parsed %+v", q)
	}
	if q.Predicate.Class != scene.Car || q.Predicate.Op != ">=" || q.Predicate.Value != 3 {
		t.Fatalf("predicate %+v", q.Predicate)
	}
	if !q.Predicate.Eval(3) || q.Predicate.Eval(2.5) {
		t.Fatal("predicate evaluation wrong")
	}
}

func TestParseAllClauses(t *testing.T) {
	q := mustParse(t, "SELECT MAX(count(car)) FROM ua-detrac USING yolov4 SAMPLE 0.02 RESOLUTION 320 REMOVE person,face CONFIDENCE 99 QUANTILE 0.95")
	if q.Setting.Resolution != 320 {
		t.Fatalf("resolution %d", q.Setting.Resolution)
	}
	// REMOVE is a set: the parser keeps it in name order, whatever the spelling.
	if len(q.Setting.Restricted) != 2 || q.Setting.Restricted[0] != scene.Face || q.Setting.Restricted[1] != scene.Person {
		t.Fatalf("restricted %v", q.Setting.Restricted)
	}
	if swapped := mustParse(t, "SELECT MAX(count(car)) FROM ua-detrac REMOVE face,person"); !slices.Equal(swapped.Setting.Restricted, q.Setting.Restricted) {
		t.Fatalf("REMOVE order survived parsing: %v vs %v", swapped.Setting.Restricted, q.Setting.Restricted)
	}
	if q.Delta < 0.0099 || q.Delta > 0.0101 {
		t.Fatalf("delta %v", q.Delta)
	}
	if q.R != 0.95 {
		t.Fatalf("r %v", q.R)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"FROM small",
		"SELECT MEDIAN(count(car)) FROM small",
		"SELECT AVG(count(dog)) FROM small",
		"SELECT AVG(sum(car)) FROM small",
		"SELECT AVG(count(car)) FROM small SAMPLE 2",
		"SELECT AVG(count(car)) FROM small SAMPLE 0",
		"SELECT AVG(count(car)) FROM small SAMPLE abc",
		"SELECT AVG(count(car)) FROM small BOGUS 3",
		"SELECT COUNT(*) FROM small",
		"SELECT AVG(count(car)) FROM small WHERE count(car) >= 1",
		"SELECT COUNT(*) FROM small WHERE count(car) ~ 1",
		"SELECT AVG(count(car)) FROM small CONFIDENCE 101",
		"SELECT AVG(count(car)) FROM small QUANTILE 1.5",
		"SELECT COUNT(*) FROM small WHERE count(car) >=",
		"SELECT AVG(count(car))",
	}
	for _, input := range bad {
		if _, err := Parse(input); err == nil {
			t.Fatalf("Parse(%q) accepted", input)
		}
	}
}

func TestPredicateOps(t *testing.T) {
	cases := []struct {
		op       string
		count    float64
		expected bool
	}{
		{">=", 3, true}, {">=", 2, false},
		{">", 3, false}, {">", 4, true},
		{"<=", 3, true}, {"<=", 4, false},
		{"<", 2, true}, {"<", 3, false},
		{"=", 3, true}, {"=", 2, false},
		{"==", 3, true},
		{"!=", 2, true}, {"!=", 3, false},
	}
	for _, c := range cases {
		p := Predicate{Class: scene.Car, Op: c.op, Value: 3}
		if got := p.Eval(c.count); got != c.expected {
			t.Fatalf("%s %v: got %v", c.op, c.count, got)
		}
	}
	if (&Predicate{Op: "??"}).Eval(1) {
		t.Fatal("unknown op evaluated true")
	}
}

func TestStringRoundTrip(t *testing.T) {
	inputs := []string{
		"SELECT AVG(count(car)) FROM night-street USING mask-rcnn SAMPLE 0.1",
		"SELECT COUNT(*) FROM ua-detrac WHERE count(car) >= 3 USING yolov4 SAMPLE 0.05",
		"SELECT MAX(count(car)) FROM ua-detrac USING yolov4 RESOLUTION 320 REMOVE person,face",
		"SELECT SUM(count(person)) FROM small",
	}
	for _, input := range inputs {
		q := mustParse(t, input)
		again := mustParse(t, q.String())
		if q.String() != again.String() {
			t.Fatalf("round trip unstable: %q -> %q", q.String(), again.String())
		}
		if again.Agg != q.Agg || again.Dataset != q.Dataset || again.Setting.SampleFraction != q.Setting.SampleFraction {
			t.Fatalf("round trip lost fields: %+v vs %+v", q, again)
		}
	}
}

func TestParamsFromQuery(t *testing.T) {
	q := mustParse(t, "SELECT MAX(count(car)) FROM small CONFIDENCE 90 QUANTILE 0.98")
	p := q.Params()
	if p.R != 0.98 {
		t.Fatalf("params %+v", p)
	}
	if p.Delta < 0.0999 || p.Delta > 0.1001 {
		t.Fatalf("params %+v", p)
	}
}

func TestTokenizerNeverPanics(t *testing.T) {
	property := func(input string) bool {
		// Parse must return (possibly an error) without panicking on any
		// input, including multi-byte runes and operator fragments.
		_, _ = Parse(input)
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenizeOperators(t *testing.T) {
	toks := tokenize("count(car)>=3,x<=2 a!=b c=d")
	want := []string{"count", "(", "car", ")", ">=", "3", ",", "x", "<=", "2", "a", "!=", "b", "c", "=", "d"}
	if strings.Join(toks, " ") != strings.Join(want, " ") {
		t.Fatalf("tokenize = %v", toks)
	}
}
