package query

import "testing"

// FuzzQueryParse holds the query language's two promises on arbitrary
// input: Parse returns (a query or an error) without panicking, and a
// parsed query's canonical String() is itself a query that renders back to
// the same string — the form the daemon keys profiles by and the CLI
// prints.
func FuzzQueryParse(f *testing.F) {
	f.Add("SELECT AVG(count(car)) FROM night-street USING mask-rcnn SAMPLE 0.1")
	f.Add("SELECT COUNT(*) FROM ua-detrac WHERE count(car) >= 3 USING yolov4 SAMPLE 0.05")
	f.Add("SELECT MAX(count(car)) FROM ua-detrac USING yolov4 RESOLUTION 320 REMOVE person,face")
	f.Add("SELECT SUM(count(person)) FROM small CONFIDENCE 90 QUANTILE 0.98")
	f.Add("select var(count(car)) from small noise 0.2 blur 9 quantize 8 occlude 0.3")
	f.Add("SELECT COUNT(*) FROM small WHERE count(face) != 0")
	f.Add("SELECT AVG(count(car)) FROM")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		canonical := q.String()
		again, err := Parse(canonical)
		if err != nil {
			t.Fatalf("Parse(%q) = %q, which does not parse: %v", input, canonical, err)
		}
		if got := again.String(); got != canonical {
			t.Fatalf("Parse(%q) renders %q, which renders back as %q", input, canonical, got)
		}
	})
}
