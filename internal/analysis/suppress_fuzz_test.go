package analysis

import (
	"strings"
	"testing"
)

// FuzzSuppressParse pins the suppression grammar against arbitrary
// comment bytes: parsing must never panic, anything lacking the
// smokevet:ignore prefix must be rejected, and every accepted result
// must be internally consistent — a trimmed reason, and an analyzer
// scope that is either empty or a known analyzer name; a scope-shaped word
// naming no analyzer (lockorder was retired) comes back as unknownScope.
func FuzzSuppressParse(f *testing.F) {
	f.Add("smokevet:ignore reason text")
	f.Add("smokevet:ignore determinism: scoped reason")
	f.Add("smokevet:ignore")
	f.Add("smokevet:ignore   ")
	f.Add("smokevet:ignore notananalyzer: reason with a colon")
	f.Add("smokevet:ignore errcontract: colons: every:where")
	f.Add(" \t smokevet:ignore lockorder:   padded   ")
	f.Add("just a comment")
	f.Add("smokevet:ignorewithnospace")
	f.Add("")
	f.Add("smokevet:ignore :")
	f.Add("smokevet:ignore determinism:")
	f.Fuzz(func(t *testing.T, text string) {
		s, unknownScope, ok := parseSuppression(text)
		if !ok {
			if strings.HasPrefix(strings.TrimSpace(text), suppressPrefix) {
				t.Fatalf("parseSuppression(%q) rejected a prefixed comment", text)
			}
			return
		}
		if !strings.HasPrefix(strings.TrimSpace(text), suppressPrefix) {
			t.Fatalf("parseSuppression(%q) accepted a comment without the prefix", text)
		}
		if s.analyzer != "" && !knownAnalyzer(s.analyzer) {
			t.Fatalf("parseSuppression(%q) scoped to unknown analyzer %q", text, s.analyzer)
		}
		if unknownScope != "" && (knownAnalyzer(unknownScope) || s.analyzer != "") {
			t.Fatalf("parseSuppression(%q) reports unknown scope %q beside scope %q", text, unknownScope, s.analyzer)
		}
		if s.reason != strings.TrimSpace(s.reason) {
			t.Fatalf("parseSuppression(%q) kept surrounding space in reason %q", text, s.reason)
		}
	})
}
