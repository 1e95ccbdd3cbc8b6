package online

import (
	"reflect"
	"testing"

	"repro/internal/counters"
)

// TestFolderSnapshotPurity: Snapshot is a pure read. A live session
// publishes intermediate Reports while records keep arriving, so
// interleaving snapshots with adds must leave the folder's final state
// identical to an uninterrupted feed of the same stream.
func TestFolderSnapshotPurity(t *testing.T) {
	shape := counters.ExpDecay(3, 0.15)
	stream := genStream(shape, 200, 3, 11)

	interleaved := NewFolder(counters.TotIns, 64)
	reference := NewFolder(counters.TotIns, 64)
	for i := range stream {
		ia := interleaved.Add(&stream[i])
		ra := reference.Add(&stream[i])
		if ia != ra {
			t.Fatalf("instance %d: accept/reject diverged after a snapshot", i)
		}
		if i%10 == 0 && i > 0 {
			if _, err := interleaved.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if interleaved.instances != reference.instances ||
		interleaved.pruned != reference.pruned ||
		interleaved.points != reference.points {
		t.Fatalf("counters diverged: %d/%d/%d vs %d/%d/%d",
			interleaved.instances, interleaved.pruned, interleaved.points,
			reference.instances, reference.pruned, reference.points)
	}
	a, err := interleaved.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := reference.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("snapshot-interleaved folder state differs from an uninterrupted feed")
	}
}

// TestFolderPrefixDeterminism: feeding a prefix gives the same snapshot
// as feeding the same prefix to a fresh folder — there is no hidden
// order- or time-dependent state beyond the instances themselves.
func TestFolderPrefixDeterminism(t *testing.T) {
	shape := counters.ExpDecay(2, 0.3)
	stream := genStream(shape, 120, 4, 7)
	for _, k := range []int{1, 10, 60, 120} {
		f1 := NewFolder(counters.TotIns, 80)
		f2 := NewFolder(counters.TotIns, 80)
		for i := 0; i < k; i++ {
			f1.Add(&stream[i])
		}
		for i := 0; i < k; i++ {
			f2.Add(&stream[i])
		}
		a, errA := f1.Snapshot()
		b, errB := f2.Snapshot()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("k=%d: snapshot errors diverged: %v vs %v", k, errA, errB)
		}
		if errA != nil {
			continue
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("k=%d: identical prefixes folded to different states", k)
		}
	}
}
