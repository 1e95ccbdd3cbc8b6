package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestBoundWarningsDedupe(t *testing.T) {
	in := []string{"a", "b", "a", "a", "c", "b"}
	got := BoundWarnings(in)
	want := []string{"a (×3)", "b (×2)", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestBoundWarningsPassThrough(t *testing.T) {
	in := []string{"a", "b", "c"}
	if got := BoundWarnings(in); !reflect.DeepEqual(got, in) {
		t.Fatalf("distinct under-cap warnings must pass through unchanged, got %v", got)
	}
	if BoundWarnings(nil) != nil {
		t.Fatal("nil must stay nil")
	}
}

func TestBoundWarningsCap(t *testing.T) {
	var in []string
	for i := 0; i < MaxWarnings*3; i++ {
		in = append(in, fmt.Sprintf("warning %d", i))
	}
	got := BoundWarnings(in)
	if len(got) != MaxWarnings {
		t.Fatalf("got %d warnings, want the %d cap", len(got), MaxWarnings)
	}
	last := got[len(got)-1]
	if !strings.Contains(last, "suppressed") {
		t.Fatalf("cap overflow not marked: %q", last)
	}
	wantSuppressed := fmt.Sprintf("%d further distinct warning(s) suppressed", MaxWarnings*3-(MaxWarnings-1))
	if last != wantSuppressed {
		t.Fatalf("overflow marker %q, want %q", last, wantSuppressed)
	}
}

// TestBoundWarningsIdempotent: the session snapshot path applies
// BoundWarnings on top of Reduce's application, so a bounded list
// must bound to itself.
func TestBoundWarningsIdempotent(t *testing.T) {
	cases := [][]string{
		nil,
		{"a"},
		{"a", "b", "a", "c", "c", "c"},
	}
	var big []string
	for i := 0; i < MaxWarnings*2; i++ {
		big = append(big, fmt.Sprintf("w%d", i))
	}
	cases = append(cases, big)
	for _, in := range cases {
		once := BoundWarnings(in)
		twice := BoundWarnings(append([]string(nil), once...))
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("not idempotent: %v -> %v", once, twice)
		}
	}
}
