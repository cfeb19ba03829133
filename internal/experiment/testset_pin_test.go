package experiment

import (
	"fmt"
	"hash/crc32"
	"testing"
)

// testSetCRC is crc32-IEEE over the concatenated Vector.Key()s of a
// prepared test set, in test order.
func testSetCRC(pr *Prepared) uint32 {
	h := crc32.NewIEEE()
	for _, v := range pr.Tests.Vecs {
		h.Write([]byte(v.Key()))
	}
	return h.Sum32()
}

// TestTestSetChecksumsPinned pins the exact test sets that seed-1
// PrepareProfile generates. ATPG speedups (incremental implication,
// solver bookkeeping) must leave every search step unchanged, so any
// drift here is a behaviour change, not noise. The larger rows are
// skipped under -short and under the race detector.
func TestTestSetChecksumsPinned(t *testing.T) {
	pins := []struct {
		circuit string
		tt      TestSetType
		crc     uint32
		long    bool
	}{
		{"s298", Diagnostic, 0xccc5530b, false},
		{"s298", TenDetect, 0x1cf6104e, false},
		{"s526", TenDetect, 0xabaed9d8, false},
		{"s386", Diagnostic, 0x4f235842, true},
		{"s641", TenDetect, 0xfd8c0b50, true},
		{"s1196", Diagnostic, 0x0f3cff62, true},
	}
	for _, p := range pins {
		p := p
		t.Run(fmt.Sprintf("%s/%s", p.circuit, p.tt), func(t *testing.T) {
			if p.long && (testing.Short() || raceEnabled) {
				t.Skip("large row; skipped under -short and -race")
			}
			pr, err := PrepareProfile(p.circuit, p.tt, Config{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := testSetCRC(pr); got != p.crc {
				t.Errorf("test-set CRC = %08x, want %08x (%d tests)", got, p.crc, pr.Tests.Len())
			}
		})
	}
}
