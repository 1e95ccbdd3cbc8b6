// Package deepeq compares values as reflect.DeepEqual does, except that
// a floating-point NaN equals NaN. Analysis outputs carry NaN by design
// (fold bands mark thinly supported grid cells with it, and a
// degenerate clustering's silhouette is NaN), so a check that two
// analyses are bit-identical needs this notion of equality.
package deepeq

import (
	"fmt"
	"reflect"
)

// Diff returns "" when x and y are deeply equal in reflect.DeepEqual's
// sense with NaN equal to NaN, and otherwise the path of a difference,
// such as ".Phases[0].Folds[PAPI_TOT_INS].StdErr[3]". Values must not
// contain cycles.
func Diff(x, y any) string {
	return diff(reflect.ValueOf(x), reflect.ValueOf(y), "")
}

func diff(a, b reflect.Value, path string) string {
	if !a.IsValid() || !b.IsValid() {
		if a.IsValid() == b.IsValid() {
			return ""
		}
		return at(path)
	}
	if a.Type() != b.Type() {
		return at(path)
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if x, y := a.Float(), b.Float(); x == y || (x != x && y != y) {
			return ""
		}
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return at(path)
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if d := diff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return at(path)
		}
		for it := a.MapRange(); it.Next(); {
			p := fmt.Sprintf("%s[%v]", path, it.Key())
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return p
			}
			if d := diff(it.Value(), bv, p); d != "" {
				return d
			}
		}
		return ""
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() == b.IsNil() {
				return ""
			}
			return at(path)
		}
		return diff(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
		return ""
	case reflect.Func:
		// As in reflect.DeepEqual: only two nil funcs are equal.
		if a.IsNil() && b.IsNil() {
			return ""
		}
	default:
		if a.Equal(b) {
			return ""
		}
	}
	return at(path)
}

func at(path string) string {
	if path == "" {
		return "."
	}
	return path
}
