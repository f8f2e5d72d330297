package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests drive the command itself: re-executed with
// SMOKESCREEN_TEST_MAIN set, the test binary is the CLI.
func TestMain(m *testing.M) {
	if os.Getenv("SMOKESCREEN_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SMOKESCREEN_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("smokescreen %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// query -truth must report the paper's metric — rank error for MAX/MIN —
// because that is the metric the printed bound bounds. The hand-rolled value
// error it used to print read 0.6667 under `error <= 0.5329` for the MAX
// query (a violation on screen that is none: the rank error is 0.3545) and
// NaN for the MIN query, whose exact answer is 0.
func TestQueryTruthReportsPaperMetric(t *testing.T) {
	for _, tc := range []struct{ query, bound, truth string }{
		{"SELECT MAX(count(car)) FROM small SAMPLE 0.1 RESOLUTION 96", "error <=    0.5329", "true error 0.3545, bound held"},
		{"SELECT MIN(count(car)) FROM small SAMPLE 0.1", "error <=", "true error 0.0000, bound held"},
		// A full sample has a bound of exactly 0 and a summation-order error
		// of a few ulps: exact, not violated.
		{"SELECT AVG(count(car)) FROM small SAMPLE 1.0", "error <=    0.0000", "true error 0.0000, bound held"},
		{"SELECT SUM(count(car)) FROM small SAMPLE 1.0", "error <=    0.0000", "true error 0.0000, bound held"},
		{"SELECT COUNT(*) FROM small WHERE count(car) >= 2 SAMPLE 1.0", "error <=    0.0000", "true error 0.0000, bound held"},
	} {
		out := runCLI(t, "query", "-truth", tc.query)
		if !strings.Contains(out, tc.bound) || !strings.Contains(out, tc.truth) {
			t.Errorf("%s: want %q and %q in:\n%s", tc.query, tc.bound, tc.truth, out)
		}
	}
}

// A stream's bound is the any-time sampling bound over the frames delivered;
// nothing repairs a non-random axis (ROADMAP item 1). Until the correction
// channel exists, every bound printed for such a stream says so, and a
// random-only stream prints exactly what it always has.
func TestStreamLabelsSamplingOnlyBounds(t *testing.T) {
	for _, tc := range []struct{ clauses, label string }{
		{"SAMPLE 0.1", ""},
		{"SAMPLE 0.1 RESOLUTION 96", "[sampling only — RESOLUTION not repaired]"},
		{"SAMPLE 0.1 NOISE 0.1", "[sampling only — NOISE not repaired]"},
		{"SAMPLE 0.1 BLUR 7", "[sampling only — BLUR not repaired]"},
		{"SAMPLE 0.1 REMOVE face", "[sampling only — REMOVE not repaired]"},
		{"SAMPLE 0.1 RESOLUTION 160 QUANTIZE 16", "[sampling only — RESOLUTION, QUANTIZE not repaired]"},
	} {
		query := "SELECT AVG(count(car)) FROM small " + tc.clauses
		for _, args := range [][]string{
			{"stream", "-window", "400", "-no-drift", query},
			{"stream", query}, // one window per camera session
		} {
			var bounds []string
			for _, line := range strings.Split(runCLI(t, args...), "\n") {
				if strings.Contains(line, "err <=") {
					bounds = append(bounds, line)
				}
			}
			if len(bounds) == 0 {
				t.Errorf("%s: %v printed no bound", tc.clauses, args)
			}
			for _, line := range bounds {
				if tc.label == "" && strings.Contains(line, "sampling only") {
					t.Errorf("%s: random-only stream labelled: %q", tc.clauses, line)
					break
				}
				if !strings.HasSuffix(strings.TrimSuffix(line, "  << DRIFT"), tc.label) {
					t.Errorf("%s: bound printed without %q: %q", tc.clauses, tc.label, line)
					break
				}
			}
		}
	}
}

// windowLines returns the `window …` lines of a stream command's output.
func windowLines(out string) []string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "window ") {
			lines = append(lines, line)
		}
	}
	return lines
}

// A stream has one answer. `stream Q` is `stream -window <corpus length> Q`,
// the same camera into the same receiver, so the two print the same window
// line; and at SAMPLE 1.0 that line is the value `query -truth` calls exact
// under a zero bound — a receive path that detected on the decoded rasters
// instead would print 3.118 (err <= 0.000) over the exact 3.239.
func TestStreamHasOneAnswer(t *testing.T) {
	const full = "SELECT AVG(count(car)) FROM small SAMPLE 1.0"
	exact := runCLI(t, "query", "-truth", full)
	if !strings.Contains(exact, "exact:      3.23917 ") {
		t.Fatalf("query -truth no longer reports 3.23917:\n%s", exact)
	}
	lines := windowLines(runCLI(t, "stream", full))
	if len(lines) != 1 || !strings.Contains(lines[0], "[     0,  1200): 3.239 (err <= 0.000, 1200/1200 frames") {
		t.Errorf("stream at SAMPLE 1.0 printed %q, want one window reading 3.239 (err <= 0.000)", lines)
	}

	for _, clauses := range []string{"SAMPLE 0.1", "SAMPLE 0.1 NOISE 0.1"} {
		query := "SELECT AVG(count(car)) FROM small " + clauses
		session := windowLines(runCLI(t, "stream", "-no-drift", query))
		windowed := windowLines(runCLI(t, "stream", "-no-drift", "-window", "1200", query))
		if len(session) != 1 || len(windowed) != 1 || session[0] != windowed[0] {
			t.Errorf("%s: stream printed %q, stream -window 1200 printed %q", clauses, session, windowed)
		}
	}
}

// explain prints the plan the executor runs: degrade.ApplyCtx samples at
// least one frame, so SAMPLE 0.0001 of 1 200 frames is 1, not round(0.12);
// and a sample the admissible pool cannot hold is ApplyCtx's own error.
func TestExplainPrintsTheExecutedPlan(t *testing.T) {
	for _, tc := range []struct{ query, want string }{
		{"SELECT AVG(count(car)) FROM small SAMPLE 0.0001", "plan:          sample 1 of 1200 admissible frames (corpus 1200) at 608x608"},
		{"SELECT AVG(count(car)) FROM small SAMPLE 0.1 RESOLUTION 160", "plan:          sample 120 of 1200 admissible frames (corpus 1200) at 160x160"},
		{"SELECT AVG(count(car)) FROM small SAMPLE 1.0 REMOVE face", "warning:       degrade: sample of 1200 frames exceeds admissible pool of"},
	} {
		if out := runCLI(t, "explain", tc.query); !strings.Contains(out, tc.want) {
			t.Errorf("explain %q: want %q in:\n%s", tc.query, tc.want, out)
		}
	}
}
