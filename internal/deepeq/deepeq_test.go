package deepeq

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

type inner struct {
	F  float64
	xs []float64
}

type outer struct {
	Name string
	In   *inner
	M    map[string]*inner
	E    error
	Any  any
}

func TestDiff(t *testing.T) {
	nan := math.NaN()
	mk := func() outer {
		return outer{
			Name: "a",
			In:   &inner{F: nan, xs: []float64{1, nan}},
			M:    map[string]*inner{"k": {F: 2, xs: []float64{nan}}},
			E:    errors.New("boom"),
			Any:  []int{1, 2},
		}
	}
	a, b := mk(), mk()
	if reflect.DeepEqual(a, b) {
		t.Fatal("reflect.DeepEqual found values holding NaN equal")
	}
	if d := Diff(a, b); d != "" {
		t.Fatalf("equal values with NaN differ at %s", d)
	}
	if d := Diff(nil, nil); d != "" {
		t.Fatalf("nil vs nil differs at %s", d)
	}
	for _, tc := range []struct {
		mutate func(*outer)
		want   string
	}{
		{func(o *outer) { o.Name = "b" }, ".Name"},
		{func(o *outer) { o.In.F = 1 }, ".In.F"},
		{func(o *outer) { o.In.xs[1] = 0 }, ".In.xs[1]"},
		{func(o *outer) { o.In.xs = o.In.xs[:1] }, ".In.xs"},
		{func(o *outer) { o.In.xs = nil }, ".In.xs"},
		{func(o *outer) { o.M["k"].xs[0] = 3 }, ".M[k].xs[0]"},
		{func(o *outer) { o.M = map[string]*inner{"j": o.M["k"]} }, ".M[k]"},
		{func(o *outer) { o.E = errors.New("bang") }, ".E.s"},
		{func(o *outer) { o.Any = []int64{1, 2} }, ".Any"},
		{func(o *outer) { o.In = nil }, ".In"},
	} {
		b := mk()
		tc.mutate(&b)
		if d := Diff(a, b); d != tc.want {
			t.Errorf("Diff = %q, want %q", d, tc.want)
		}
		if d := Diff(b, a); d == "" {
			t.Errorf("reversed Diff missed the change at %s", tc.want)
		}
	}
	if d := Diff(1, int64(1)); d != "." {
		t.Errorf("values of different types: Diff = %q, want \".\"", d)
	}
}
