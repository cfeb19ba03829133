package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzReadCompiled: ReadCompiled must never panic or allocate for more
// than its input holds, and whatever it accepts must be consistent:
// CompiledSize agrees on the encoding's length, WriteTo reproduces those
// bytes exactly, and the decoded dictionary diagnoses its own fault-free
// responses without panicking. The corpus starts from the 28-byte
// allocation-bomb header and real encodings of a one-baseline and a
// two-baseline same/different dictionary.
func FuzzReadCompiled(f *testing.F) {
	f.Add(allocationBomb)
	r := rand.New(rand.NewSource(3))
	opts := DefaultOptions
	opts.Seed = 7
	opts.Calls1 = 2
	opts.MaxRestarts = 3
	m := randomMatrix(r, 12, 5, 4)
	one, _ := BuildSameDiff(m, opts)
	two, _ := BuildSameDiffMulti(m, opts)
	for _, d := range []*Dictionary{one, two} {
		c, err := d.Compile()
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCompiled(bytes.NewReader(data))
		if err != nil {
			return
		}
		n, err := CompiledSize(data)
		if err != nil {
			t.Fatalf("ReadCompiled accepted an encoding CompiledSize refuses: %v", err)
		}
		if n > int64(len(data)) {
			t.Fatalf("CompiledSize %d exceeds the %d bytes ReadCompiled read", n, len(data))
		}
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatal("WriteTo does not reproduce the bytes ReadCompiled accepted")
		}
		sig, err := c.Signature(c.FaultFree)
		if err != nil {
			t.Fatal(err)
		}
		c.Candidates(sig)
		c.Rank(sig, 3)
	})
}
