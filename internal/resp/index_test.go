package resp

import (
	"math/rand"
	"testing"

	"sddict/internal/logic"
)

// checkIndexRow verifies one test's detected-fault index against its
// class row: segments in ascending class order, ascending fault order
// within a class, class 0 empty, every detected fault listed exactly once.
func checkIndexRow(t *testing.T, label string, class []int32, ci ClassIndex) {
	t.Helper()
	if len(ci.ClassList(0)) != 0 {
		t.Fatalf("%s: class-0 segment has %d entries, want 0", label, len(ci.ClassList(0)))
	}
	seen := 0
	for z := int32(1); z+1 < int32(len(ci.detOffs)); z++ {
		seg := ci.ClassList(z)
		seen += len(seg)
		prev := int32(-1)
		for _, f := range seg {
			if class[f] != z {
				t.Fatalf("%s: class %d segment lists fault %d of class %d", label, z, f, class[f])
			}
			if f <= prev {
				t.Fatalf("%s: class %d segment not in ascending fault order (%d after %d)", label, z, f, prev)
			}
			prev = f
		}
	}
	detected := 0
	for _, z := range class {
		if z != 0 {
			detected++
		}
	}
	if seen != detected || len(ci.DetectedList()) != detected {
		t.Fatalf("%s: index lists %d faults across segments, DetectedList %d, class row has %d detected",
			label, seen, len(ci.DetectedList()), detected)
	}
}

// TestClassIndexMatchesClassRow checks the detected-fault index on random
// class rows, including rows with empty classes beyond the observed ones.
func TestClassIndexMatchesClassRow(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(200)
		numClasses := 1 + r.Intn(8)
		class := make([]int32, n)
		for i := range class {
			class[i] = int32(r.Intn(numClasses))
		}
		m := &Matrix{N: n, K: 1, Class: [][]int32{class}, Vecs: [][]logic.BitVec{make([]logic.BitVec, numClasses)}}
		ci := m.ClassIndex(0)
		if len(ci.detOffs) != numClasses+1 {
			t.Fatalf("trial %d: index has %d class offsets, want %d", trial, len(ci.detOffs), numClasses+1)
		}
		checkIndexRow(t, "ClassIndex", class, ci)
	}
}
