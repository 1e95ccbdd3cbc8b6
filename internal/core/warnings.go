package core

import "fmt"

// MaxWarnings caps Report.Warnings after deduplication. Long-lived
// lenient consumers (live sessions, replay loops) can otherwise grow a
// report without bound by accumulating one warning per salvaged chunk.
const MaxWarnings = 64

// BoundWarnings dedupes a warning list (keeping first-occurrence order,
// annotating repeats with a count suffix) and caps the result at
// MaxWarnings entries, replacing the overflow with a single suppression
// marker. It is idempotent: applying it to its own output returns the
// list unchanged, so layered callers (Reduce, live sessions) can each
// bound defensively without perturbing report equivalence.
func BoundWarnings(ws []string) []string {
	if len(ws) <= 1 {
		return ws
	}
	counts := make(map[string]int, len(ws))
	order := make([]string, 0, len(ws))
	for _, w := range ws {
		if counts[w] == 0 {
			order = append(order, w)
		}
		counts[w]++
	}
	if len(order) == len(ws) && len(order) <= MaxWarnings {
		return ws
	}
	out := make([]string, 0, len(order))
	for _, w := range order {
		if len(out) == MaxWarnings-1 && len(order) > MaxWarnings {
			out = append(out, fmt.Sprintf("%d further distinct warning(s) suppressed", len(order)-len(out)))
			break
		}
		if n := counts[w]; n > 1 {
			w = fmt.Sprintf("%s (×%d)", w, n)
		}
		out = append(out, w)
	}
	return out
}

// ValidationWarning is the warning a lenient whole-trace analysis
// carries for a trace that fails validation, err being the first
// violation; it follows the decode-salvage warnings.
func ValidationWarning(err error) string {
	return fmt.Sprintf("trace failed validation (%v); analyzing anyway", err)
}
