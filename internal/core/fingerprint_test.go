package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/folding"
)

// resultInvariant lists the leaf fields of Options that Fingerprint
// leaves out, as its doc states.
var resultInvariant = map[string]bool{
	"Parallelism":         true,
	"Cluster.Parallelism": true,
	"Cluster.Index":       true,
	"Cluster.Logger":      true,
	"Logger":              true,
	"Fold.Counter":        true,
	"Cluster.UseIPC":      true,
}

// leafFields returns the dotted paths of the exported non-struct fields
// of t, descending into struct fields.
func leafFields(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch {
		case !f.IsExported():
		case f.Type.Kind() == reflect.Struct:
			out = append(out, leafFields(f.Type, prefix+f.Name+".")...)
		default:
			out = append(out, prefix+f.Name)
		}
	}
	return out
}

// setNonZero gives v a value that is neither its zero value nor any
// field's default.
func setNonZero(t *testing.T, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(3)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(3)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.5)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		setNonZero(t, path, s.Index(0))
		v.Set(s)
	default:
		t.Fatalf("%s: no test value for kind %v — extend setNonZero", path, v.Kind())
	}
}

// TestFingerprintCoversOptions sets each leaf field of Options in turn,
// those of Cluster, Fold and Stream included. The fingerprint must
// change unless the field is result-invariant, and must not change when
// it is; so a new option cannot be left out of the cache key, nor an
// invariant one split it.
func TestFingerprintCoversOptions(t *testing.T) {
	base := Options{}.Fingerprint()
	leaves := leafFields(reflect.TypeOf(Options{}), "")
	seen := map[string]bool{}
	for _, path := range leaves {
		seen[path] = true
		var o Options
		v := reflect.ValueOf(&o).Elem()
		for _, name := range strings.Split(path, ".") {
			v = v.FieldByName(name)
		}
		setNonZero(t, path, v)
		changed := o.Fingerprint() != base
		switch {
		case resultInvariant[path] && changed:
			t.Errorf("%s is listed result-invariant but changes the fingerprint", path)
		case !resultInvariant[path] && !changed:
			t.Errorf("setting %s leaves the fingerprint unchanged: cached reports would ignore it", path)
		}
	}
	for path := range resultInvariant {
		if !seen[path] {
			t.Errorf("resultInvariant lists %s, which is not a leaf field of Options", path)
		}
	}
	if len(leaves) < 20 {
		t.Fatalf("found only %d leaf fields — check the walk", len(leaves))
	}
}

// TestFingerprintDefaults requires zero options, options set to every
// documented default, and a negative silhouette sample (which scores
// like the default) to fingerprint alike.
func TestFingerprintDefaults(t *testing.T) {
	explicit := Options{
		MinBurstDuration: 50_000,
		Counters:         []counters.Counter{counters.TotIns, counters.FPOps, counters.L1DCM, counters.L2DCM},
		StackBins:        50,
		MaxPhases:        5,
		Stream:           StreamOptions{TrainBursts: 512},
		Cluster:          cluster.Config{MinPts: 4, UseIPC: true},
		Fold:             folding.Config{Bins: 100, PruneK: 3},
	}
	if got, want := explicit.Fingerprint(), (Options{}).Fingerprint(); got != want {
		t.Fatalf("explicit defaults fingerprint\n  %s\nzero options\n  %s", got, want)
	}
	negative := Options{Cluster: cluster.Config{SilhouetteSample: -1}}
	if got, want := negative.Fingerprint(), (Options{}).Fingerprint(); got != want {
		t.Fatalf("negative silhouette sample fingerprint\n  %s\nzero options\n  %s", got, want)
	}
}
