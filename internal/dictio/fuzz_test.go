package dictio_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sddict/internal/dictio"
)

// fixSectionCRCs returns a copy of data with every section checksum it
// frames recomputed over that section's payload, as far as the framing
// holds together. Without it almost every mutation dies at the first
// CRC mismatch and the fuzzer never reaches the payload decoders.
func fixSectionCRCs(data []byte) []byte {
	b := append([]byte(nil), data...)
	if len(b) < 12 {
		return b
	}
	le := binary.LittleEndian
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	off := 12
	for i := le.Uint32(b[8:12]); i > 0 && off+12 <= len(b); i-- {
		length := le.Uint64(b[off+4 : off+12])
		start := off + 12
		if len(b)-start < 4 || length > uint64(len(b)-start-4) {
			break
		}
		end := start + int(length)
		le.PutUint32(b[end:end+4], crc32.Checksum(b[start:end], castagnoli))
		off = end + 4
	}
	return b
}

// FuzzDecode: on any bytes, with their section CRCs made valid, Decode
// must return an artifact or an error wrapping one of its two sentinels —
// never panic, never allocate for a size the bytes do not hold. An
// accepted artifact's checksum must be the CRC32C of the whole stream,
// and it must survive an Encode/Decode round trip unchanged. The corpus
// starts from an artifact sdd published for s27, the in-memory toy
// artifact, and the 28-byte allocation-bomb header wrapped CRC-valid.
func FuzzDecode(f *testing.F) {
	published, err := os.ReadFile(filepath.Join("testdata", "s27.sdda"))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := dictio.Decode(bytes.NewReader(published)); err != nil {
		f.Fatalf("seed artifact does not decode: %v", err)
	}
	f.Add(published)
	f.Add(encode(f, testArtifact(f)))
	f.Add(craftArtifact([]byte(`{"circuit":"toy","tests":1,"outputs":1,"faults":["f"]}`), allocationBomb))
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, data []byte) {
		data = fixSectionCRCs(data)
		a, err := dictio.Decode(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, dictio.ErrCorruptArtifact) && !errors.Is(err, dictio.ErrArtifactVersion) {
				t.Fatalf("error wraps neither sentinel: %v", err)
			}
			return
		}
		if want := crc32.Checksum(data, castagnoli); a.Checksum != want {
			t.Fatalf("checksum %08x, stream CRC32C %08x", a.Checksum, want)
		}
		var buf bytes.Buffer
		if err := a.Encode(&buf); err != nil {
			t.Fatalf("re-encoding an accepted artifact: %v", err)
		}
		b, err := dictio.Decode(&buf)
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		if !reflect.DeepEqual(a.Header, b.Header) || !reflect.DeepEqual(a.Dict, b.Dict) {
			t.Fatalf("round trip changed the artifact:\n%+v\n%+v", a.Header, b.Header)
		}
	})
}
