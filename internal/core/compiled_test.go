package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"sddict/internal/logic"
)

func buildCompiled(t *testing.T, r *rand.Rand, extra bool) (*Dictionary, *Compiled) {
	t.Helper()
	m := randomMatrix(r, 20+r.Intn(30), 3+r.Intn(10), 5)
	opts := DefaultOptions
	opts.Seed = r.Int63()
	opts.Calls1 = 3
	opts.MaxRestarts = 6
	var d *Dictionary
	if extra {
		d, _ = BuildSameDiffMulti(m, opts)
	} else {
		d, _ = BuildSameDiff(m, opts)
	}
	c, err := d.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return d, c
}

// TestCompileMatchesDictionary: the compiled form must reproduce the
// dictionary's rows, baseline vectors and (minimized) size.
func TestCompileMatchesDictionary(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for trial := 0; trial < 20; trial++ {
		d, c := buildCompiled(t, r, trial%3 == 0)
		m := d.M
		if len(c.Rows) != m.N || c.NumTests != m.K || c.Outputs != m.M {
			t.Fatalf("trial %d: dims mismatch", trial)
		}
		for i := 0; i < m.N; i++ {
			if !c.Rows[i].Equal(d.Row(i)) {
				t.Fatalf("trial %d: row %d differs", trial, i)
			}
		}
		for j := 0; j < m.K; j++ {
			if !c.Baseline[j].Equal(d.BaselineVector(j)) {
				t.Fatalf("trial %d: baseline %d differs", trial, j)
			}
			if !c.FaultFree[j].Equal(m.Vecs[j][0]) {
				t.Fatalf("trial %d: fault-free %d differs", trial, j)
			}
		}
		if c.SizeBits() != d.SizeBits() {
			t.Fatalf("trial %d: compiled size %d, dictionary size %d",
				trial, c.SizeBits(), d.SizeBits())
		}
	}
}

// TestCompiledSignatureAndCandidates: diagnosing with the compiled form
// must reproduce the dictionary's groups — feeding fault i's own stored
// responses yields exactly the faults sharing its row.
func TestCompiledSignatureAndCandidates(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	d, c := buildCompiled(t, r, false)
	m := d.M
	for i := 0; i < m.N; i += 3 {
		// The observed responses of fault i are its stored output vectors.
		observed := make([]logic.BitVec, m.K)
		for j := 0; j < m.K; j++ {
			observed[j] = m.Vecs[j][m.Class[j][i]]
		}
		sig, err := c.Signature(observed)
		if err != nil {
			t.Fatal(err)
		}
		cands := c.Candidates(sig)
		found := false
		for _, ci := range cands {
			if ci == i {
				found = true
			}
			if !c.Rows[ci].Equal(c.Rows[i]) {
				t.Fatalf("candidate %d has a different row than %d", ci, i)
			}
		}
		if !found {
			t.Fatalf("fault %d not among its own candidates", i)
		}
	}
}

// TestCompiledRoundTrip: WriteTo/ReadCompiled must preserve everything.
func TestCompiledRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(87))
	for trial := 0; trial < 10; trial++ {
		_, c := buildCompiled(t, r, trial%2 == 1)
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if n, err := CompiledSize(buf.Bytes()); err != nil || n != int64(buf.Len()) {
			t.Fatalf("trial %d: CompiledSize = %d, %v; encoding has %d bytes", trial, n, err, buf.Len())
		}
		got, err := ReadCompiled(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != c.Kind || got.NumTests != c.NumTests || got.Outputs != c.Outputs {
			t.Fatalf("trial %d: header fields differ", trial)
		}
		if len(got.Rows) != len(c.Rows) {
			t.Fatalf("trial %d: row count differs", trial)
		}
		for i := range c.Rows {
			if !got.Rows[i].Equal(c.Rows[i]) {
				t.Fatalf("trial %d: row %d differs after round trip", trial, i)
			}
		}
		for j := 0; j < c.NumTests; j++ {
			if !got.Baseline[j].Equal(c.Baseline[j]) || !got.FaultFree[j].Equal(c.FaultFree[j]) {
				t.Fatalf("trial %d: vectors differ after round trip", trial)
			}
		}
		if (got.ExtraBaseline == nil) != (c.ExtraBaseline == nil) {
			t.Fatalf("trial %d: extra-baseline presence differs", trial)
		}
		if got.SizeBits() != c.SizeBits() {
			t.Fatalf("trial %d: size differs after round trip", trial)
		}
	}
}

func TestReadCompiledRejectsGarbage(t *testing.T) {
	if _, err := ReadCompiled(bytes.NewReader([]byte("not a dictionary at all........."))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadCompiled(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

// allocationBomb is a 28-byte WriteTo header found by fuzzing. Its kind
// word 0x13247a01 truncates to PassFail as a uint8, and its dimensions
// 0xc0de6e7d faults × 0xe4847e71 tests overflow an int64 product to a
// negative number, so a reader that trusts it asks for a 78 GB row table
// before reading a single row.
var allocationBomb = []byte{
	0x43, 0x44, 0x44, 0x53, 0x01, 0x00, 0x00, 0x00, 0x01, 0x7a, 0x24, 0x13,
	0x7d, 0x6e, 0xde, 0xc0, 0x71, 0x7e, 0x84, 0xe4, 0x17, 0xfd, 0xd6, 0xc3,
	0x65, 0x89, 0x3c, 0x21,
}

// TestReadCompiledRejectsAllocationBomb feeds the fuzzer's header, and the
// same dimensions under a valid kind word so the dimension guard is
// reached too. Both must fail cleanly, in ReadCompiled and CompiledSize.
func TestReadCompiledRejectsAllocationBomb(t *testing.T) {
	validKind := append([]byte(nil), allocationBomb...)
	binary.LittleEndian.PutUint32(validKind[8:], uint32(PassFail))
	for name, hdr := range map[string][]byte{"fuzzed": allocationBomb, "valid kind": validKind} {
		if _, err := ReadCompiled(bytes.NewReader(hdr)); err == nil {
			t.Errorf("%s: ReadCompiled accepted the header", name)
		}
		if _, err := CompiledSize(hdr); err == nil {
			t.Errorf("%s: CompiledSize accepted the header", name)
		}
	}
}

// TestReadCompiledGrowsWithInput: a plausible header that overstates its
// rows must fail at end of input having allocated about what it read, not
// what it claimed (2^28 rows would be a 6 GB row table).
func TestReadCompiledGrowsWithInput(t *testing.T) {
	hdr := make([]byte, 0, compiledHeaderBytes+64)
	for _, w := range []uint32{compiledMagic, compiledVersion, uint32(PassFail), 1 << 28, 1, 1, 0} {
		hdr = binary.LittleEndian.AppendUint32(hdr, w)
	}
	hdr = append(hdr, make([]byte, 64)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadCompiled(bytes.NewReader(hdr)); err == nil {
		t.Fatal("truncated payload accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("ReadCompiled allocated %d bytes for a %d-byte input", grew, len(hdr))
	}
	if n, err := CompiledSize(hdr); err != nil || n <= int64(len(hdr)) {
		t.Fatalf("CompiledSize = %d, %v; want a size beyond the %d-byte input", n, err, len(hdr))
	}
}

func TestCompileRejectsFull(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	m := randomMatrix(r, 10, 4, 3)
	if _, err := NewFull(m).Compile(); err == nil {
		t.Fatal("full dictionary compiled")
	}
}
