package fleetd

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseMetrics pins the contract of the one /metrics parser the load
// driver and the benchmark read fleet counters with.
func TestParseMetrics(t *testing.T) {
	rows := []struct {
		name, text string
		want       map[string]int64
	}{
		{"samples", "a_total 3\nb 0\n", map[string]int64{"a_total": 3, "b": 0}},
		{"blank and comment lines are skipped",
			"\n# HELP a_total requests\n  \n# TYPE a_total counter\na_total 7\n",
			map[string]int64{"a_total": 7}},
		{"a non-integer sample is skipped", "ratio 0.5\nnan NaN\nn 2\n", map[string]int64{"n": 2}},
		{"a line without a value is skipped", "lonely\nn 2\n", map[string]int64{"n": 2}},
		{"a label-bearing name is kept whole", "x_bucket{le=\"0.5\"} 3\nx_count 4\n",
			map[string]int64{`x_bucket{le="0.5"}`: 3, "x_count": 4}},
		{"a later duplicate wins", "n 1\nn 5\n", map[string]int64{"n": 5}},
		{"surrounding space is trimmed", "  n   9  \n", map[string]int64{"n": 9}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			got, err := ParseMetrics(strings.NewReader(row.text))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, row.want) {
				t.Fatalf("ParseMetrics(%q) = %v, want %v", row.text, got, row.want)
			}
		})
	}
}
