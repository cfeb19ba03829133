package dictio_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"sddict/internal/core"
	"sddict/internal/dictio"
	"sddict/internal/faultfs"
	"sddict/internal/logic"
	"sddict/internal/resp"
)

func vec(t testing.TB, s string) logic.BitVec {
	t.Helper()
	v, err := dictio.ParseVector(s, len(s))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// testArtifact builds a small pass/fail artifact: 3 faults, 2 tests,
// 3 outputs — enough structure that every section is non-trivial.
func testArtifact(t testing.TB) *dictio.Artifact {
	t.Helper()
	ff := []logic.BitVec{vec(t, "000"), vec(t, "111")}
	responses := [][]logic.BitVec{
		{vec(t, "001"), vec(t, "000"), vec(t, "010")},
		{vec(t, "111"), vec(t, "011"), vec(t, "111")},
	}
	m := resp.FromResponses(3, ff, responses)
	compiled, err := core.NewPassFail(m).Compile()
	if err != nil {
		t.Fatal(err)
	}
	a, err := dictio.New(compiled, dictio.Header{
		Circuit: "toy", TestSet: "exhaustive", Seed: 7,
		Faults: []string{"g0 s-a-0", "g1 s-a-1", "g2 s-a-0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func encode(t testing.TB, a *dictio.Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestArtifactRoundTrip(t *testing.T) {
	a := testArtifact(t)
	data := encode(t, a)

	got, err := dictio.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Header.Circuit != "toy" || got.Header.Seed != 7 || got.Header.TestSet != "exhaustive" {
		t.Errorf("header round trip: %+v", got.Header)
	}
	if len(got.Header.Faults) != 3 || got.Header.Faults[1] != "g1 s-a-1" {
		t.Errorf("fault-class table round trip: %v", got.Header.Faults)
	}
	if got.Header.Kind != a.Dict.Kind.String() || got.Header.Tests != 2 || got.Header.Outputs != 3 {
		t.Errorf("derived header fields: %+v", got.Header)
	}
	if got.Checksum != a.Checksum {
		t.Errorf("decode checksum %#08x != encode checksum %#08x", got.Checksum, a.Checksum)
	}
	if len(got.Dict.Rows) != len(a.Dict.Rows) {
		t.Fatalf("row count: %d != %d", len(got.Dict.Rows), len(a.Dict.Rows))
	}
	for i := range got.Dict.Rows {
		if !got.Dict.Rows[i].Equal(a.Dict.Rows[i]) {
			t.Errorf("row %d differs after round trip", i)
		}
	}
	for j := range got.Dict.Baseline {
		if !got.Dict.Baseline[j].Equal(a.Dict.Baseline[j]) {
			t.Errorf("baseline %d differs after round trip", j)
		}
	}
}

func TestArtifactSaveLoad(t *testing.T) {
	a := testArtifact(t)
	path := filepath.Join(t.TempDir(), "toy.sdda")
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := dictio.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum != a.Checksum {
		t.Errorf("loaded checksum %#08x, published %#08x", got.Checksum, a.Checksum)
	}
}

// wantDamageSentinel asserts the decode verdict on damaged bytes: an
// error wrapping one of the two sentinels, never a silent success. A
// decoder panic fails the test run outright, which is the "never
// panics" contract.
func wantDamageSentinel(t *testing.T, data []byte, what string) {
	t.Helper()
	_, err := dictio.Decode(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("%s: decode accepted damaged artifact", what)
	}
	if !errors.Is(err, dictio.ErrCorruptArtifact) && !errors.Is(err, dictio.ErrArtifactVersion) {
		t.Fatalf("%s: err = %v, want ErrCorruptArtifact or ErrArtifactVersion", what, err)
	}
}

// TestArtifactTruncationMatrix truncates the artifact at every possible
// length — which covers every section boundary and every interior
// offset — and requires a wrapped sentinel each time.
func TestArtifactTruncationMatrix(t *testing.T) {
	data := encode(t, testArtifact(t))
	for size := 0; size < len(data); size++ {
		_, err := dictio.Decode(bytes.NewReader(data[:size]))
		if err == nil {
			t.Fatalf("decode accepted artifact truncated to %d of %d bytes", size, len(data))
		}
		if !errors.Is(err, dictio.ErrCorruptArtifact) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorruptArtifact", size, err)
		}
	}
}

// TestArtifactBitFlipMatrix flips every single bit of the encoded
// artifact, one at a time. Every flip must be detected: payload flips by
// the section CRCs, structural flips (magic, counts, lengths, ids, the
// CRC fields themselves) by validation. Flips inside the version field
// legitimately surface as ErrArtifactVersion.
func TestArtifactBitFlipMatrix(t *testing.T) {
	data := encode(t, testArtifact(t))
	for bit := 0; bit < len(data)*8; bit++ {
		mut := bytes.Clone(data)
		mut[bit/8] ^= 1 << uint(bit%8)
		wantDamageSentinel(t, mut, "bit flip")
	}
}

func TestArtifactWrongMagic(t *testing.T) {
	data := encode(t, testArtifact(t))
	copy(data[0:4], "JUNK")
	_, err := dictio.Decode(bytes.NewReader(data))
	if !errors.Is(err, dictio.ErrCorruptArtifact) {
		t.Fatalf("wrong magic: err = %v, want ErrCorruptArtifact", err)
	}
}

func TestArtifactFutureVersion(t *testing.T) {
	data := encode(t, testArtifact(t))
	binary.LittleEndian.PutUint32(data[4:8], dictio.FormatVersion+1)
	_, err := dictio.Decode(bytes.NewReader(data))
	if !errors.Is(err, dictio.ErrArtifactVersion) {
		t.Fatalf("future version: err = %v, want ErrArtifactVersion", err)
	}
	if errors.Is(err, dictio.ErrCorruptArtifact) {
		t.Fatalf("future version misreported as corruption: %v", err)
	}
}

func TestArtifactUnknownSection(t *testing.T) {
	data := encode(t, testArtifact(t))
	// Byte 12 is the first section's id field (id 1, the header).
	data[12] = 9
	wantDamageSentinel(t, data, "unknown section id")
}

func TestArtifactTrailingBytes(t *testing.T) {
	data := encode(t, testArtifact(t))
	data = append(data, 0x00)
	_, err := dictio.Decode(bytes.NewReader(data))
	if !errors.Is(err, dictio.ErrCorruptArtifact) {
		t.Fatalf("trailing bytes: err = %v, want ErrCorruptArtifact", err)
	}
}

// TestArtifactSectionDisagreement damages the header/payload agreement
// rather than any one section: both CRCs pass, the cross-check must
// object.
func TestArtifactSectionDisagreement(t *testing.T) {
	a := testArtifact(t)
	a.Header.Faults = a.Header.Faults[:2] // one name short, bypassing New's check
	data := encode(t, a)
	wantDamageSentinel(t, data, "header/dict disagreement")
}

// TestTornPublishLeavesNoArtifact drives a publish through
// core.AtomicWriteFile with a writer that tears mid-stream: the publish
// must fail and the destination must keep its previous content.
func TestTornPublishLeavesNoArtifact(t *testing.T) {
	a := testArtifact(t)
	path := filepath.Join(t.TempDir(), "toy.sdda")

	// Fresh destination: the torn publish must not create the file.
	err := core.AtomicWriteFile(path, func(w io.Writer) error {
		return a.Encode(faultfs.Torn(w, 20))
	})
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("torn publish err = %v, want ErrInjected", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("torn publish left a file behind: stat err = %v", err)
	}

	// Existing artifact: the torn re-publish must leave it loadable.
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	err = core.AtomicWriteFile(path, func(w io.Writer) error {
		return a.Encode(faultfs.Torn(w, 20))
	})
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("torn re-publish err = %v, want ErrInjected", err)
	}
	if _, err := dictio.Load(path); err != nil {
		t.Fatalf("previous artifact no longer loads after torn re-publish: %v", err)
	}
}

// TestTornTailDetected writes only a prefix of the encoding directly to
// the destination — the torn tail a non-atomic writer would leave — and
// requires the loader to reject it.
func TestTornTailDetected(t *testing.T) {
	data := encode(t, testArtifact(t))
	path := filepath.Join(t.TempDir(), "torn.sdda")
	err := core.AtomicWriteFile(path, func(w io.Writer) error {
		_, werr := w.Write(data[:len(data)/2])
		return werr
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = dictio.Load(path)
	if !errors.Is(err, dictio.ErrCorruptArtifact) {
		t.Fatalf("torn tail: err = %v, want ErrCorruptArtifact", err)
	}
}

// TestLoadFSInjectedReadFault distinguishes flaky media from
// corruption: a read failing mid-stream surfaces the injected error, not
// a corruption verdict against a file that is actually intact.
func TestLoadFSInjectedReadFault(t *testing.T) {
	a := testArtifact(t)
	path := filepath.Join(t.TempDir(), "toy.sdda")
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	fsys := faultfs.Flaky(faultfs.OS, 1, info.Size())
	_, err = dictio.LoadFS(fsys, path)
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("LoadFS under flaky media: err = %v, want ErrInjected", err)
	}
	if errors.Is(err, dictio.ErrCorruptArtifact) {
		t.Fatalf("intact artifact misreported as corrupt under flaky media: %v", err)
	}
}

// TestLoadSubMagicMatrix: zero-length and 1..len(magic)-1 files are too
// short to carry the magic, and a full 4-byte prefix with a foreign magic
// is not an artifact. Every verdict must be a wrapped ErrCorruptArtifact,
// never a raw io error and never a panic.
func TestLoadSubMagicMatrix(t *testing.T) {
	data := encode(t, testArtifact(t))
	dir := t.TempDir()
	for size := 0; size < 4; size++ {
		path := filepath.Join(dir, "short.sdda")
		if err := os.WriteFile(path, data[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := dictio.Load(path); !errors.Is(err, dictio.ErrCorruptArtifact) {
			t.Errorf("size %d: err = %v, want wrapped ErrCorruptArtifact", size, err)
		}
	}
	notArtifact := filepath.Join(dir, "elf.bin")
	if err := os.WriteFile(notArtifact, []byte{0x7f, 'E', 'L', 'F'}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dictio.Load(notArtifact); !errors.Is(err, dictio.ErrCorruptArtifact) {
		t.Errorf("foreign 4-byte magic: err = %v, want wrapped ErrCorruptArtifact", err)
	}
}

// TestLoadMissing: a missing file keeps its os identity so callers can
// 404 instead of claiming corruption.
func TestLoadMissing(t *testing.T) {
	_, err := dictio.Load(filepath.Join(t.TempDir(), "nope.sdda"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v, want os.ErrNotExist", err)
	}
	if errors.Is(err, dictio.ErrCorruptArtifact) {
		t.Errorf("missing file misreported as corrupt: %v", err)
	}
}

// craftArtifact assembles an artifact around arbitrary section payloads
// with valid CRCs, the way a hostile publisher could.
func craftArtifact(header, dict []byte) []byte {
	le := binary.LittleEndian
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	out := le.AppendUint32(nil, dictio.Magic)
	out = le.AppendUint32(out, dictio.FormatVersion)
	out = le.AppendUint32(out, 2)
	for id, payload := range [][]byte{header, dict} {
		out = le.AppendUint32(out, uint32(id+1))
		out = le.AppendUint64(out, uint64(len(payload)))
		out = append(out, payload...)
		out = le.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	}
	return out
}

// allocationBomb is the 28-byte compiled-dictionary header a fuzzer
// found: kind word 0x13247a01 and dimensions 0xc0de6e7d × 0xe4847e71,
// whose product once overflowed the size guard into a 78 GB allocation.
var allocationBomb = []byte{
	0x43, 0x44, 0x44, 0x53, 0x01, 0x00, 0x00, 0x00, 0x01, 0x7a, 0x24, 0x13,
	0x7d, 0x6e, 0xde, 0xc0, 0x71, 0x7e, 0x84, 0xe4, 0x17, 0xfd, 0xd6, 0xc3,
	0x65, 0x89, 0x3c, 0x21,
}

// TestDecodeRejectsAllocationBomb wraps the 28-byte compiled-dictionary
// header that fuzzing found (kind word 0x13247a01, dimensions
// 0xc0de6e7d × 0xe4847e71) in a CRC-valid artifact, alone and under a
// valid kind word, and with payload bytes after it. Each must be refused
// as corrupt before anything is allocated for the claimed dimensions.
func TestDecodeRejectsAllocationBomb(t *testing.T) {
	validKind := append([]byte(nil), allocationBomb...)
	binary.LittleEndian.PutUint32(validKind[8:], uint32(core.PassFail))
	header := []byte(`{"circuit":"toy","tests":1,"outputs":1,"faults":["f"]}`)
	for name, payload := range map[string][]byte{
		"fuzzed":        allocationBomb,
		"valid kind":    validKind,
		"with trailing": append(append([]byte(nil), validKind...), make([]byte, 104)...),
	} {
		_, err := dictio.Decode(bytes.NewReader(craftArtifact(header, payload)))
		if !errors.Is(err, dictio.ErrCorruptArtifact) {
			t.Errorf("%s: err = %v, want ErrCorruptArtifact", name, err)
		}
	}
}

// TestDecodeRejectsPayloadLengthMismatch: a payload whose header is valid
// but whose length disagrees with it — one word short, or one word of
// unread trailing bytes — is corrupt.
func TestDecodeRejectsPayloadLengthMismatch(t *testing.T) {
	a := testArtifact(t)
	var dict bytes.Buffer
	if _, err := a.Dict.WriteTo(&dict); err != nil {
		t.Fatal(err)
	}
	header, err := json.Marshal(a.Header)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dictio.Decode(bytes.NewReader(craftArtifact(header, dict.Bytes()))); err != nil {
		t.Fatalf("crafted intact artifact: %v", err)
	}
	for name, payload := range map[string][]byte{
		"short": dict.Bytes()[:dict.Len()-8],
		"long":  append(append([]byte(nil), dict.Bytes()...), make([]byte, 8)...),
	} {
		_, err := dictio.Decode(bytes.NewReader(craftArtifact(header, payload)))
		if !errors.Is(err, dictio.ErrCorruptArtifact) {
			t.Errorf("%s payload: err = %v, want ErrCorruptArtifact", name, err)
		}
	}
}

// TestTestSetChecksum pins the test-set identity: stable across
// republishes of the same dictionary, different once the baselines
// change, carried through the artifact header, and back-filled when
// decoding a pre-field artifact.
func TestTestSetChecksum(t *testing.T) {
	a := testArtifact(t)
	if a.Header.TestChecksum == "" || a.Header.TestChecksum != dictio.TestSetChecksum(a.Dict) {
		t.Fatalf("header test checksum %q, computed %q", a.Header.TestChecksum, dictio.TestSetChecksum(a.Dict))
	}
	got, err := dictio.Decode(bytes.NewReader(encode(t, a)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.TestChecksum != a.Header.TestChecksum {
		t.Errorf("decoded test checksum %q != published %q", got.Header.TestChecksum, a.Header.TestChecksum)
	}

	// A baseline flip changes the identity.
	b := testArtifact(t)
	b.Dict.Baseline[0] = b.Dict.Baseline[0].Clone()
	b.Dict.Baseline[0].Set(0, 1-b.Dict.Baseline[0].Get(0))
	if dictio.TestSetChecksum(b.Dict) == a.Header.TestChecksum {
		t.Error("baseline flip kept the same test-set checksum")
	}

	// Pre-field artifact (empty test_checksum in the header): Decode
	// adopts the computed identity so recall works on old artifacts.
	old := testArtifact(t)
	old.Header.TestChecksum = ""
	got, err = dictio.Decode(bytes.NewReader(encode(t, old)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.TestChecksum != dictio.TestSetChecksum(old.Dict) {
		t.Errorf("pre-field artifact: decoded test checksum %q, want back-filled %q",
			got.Header.TestChecksum, dictio.TestSetChecksum(old.Dict))
	}

	// A header claiming a different test-set identity than its own
	// baselines hash to is cross-section disagreement: both CRCs pass,
	// the semantic check must object.
	lying := testArtifact(t)
	lying.Header.TestChecksum = "deadbeef"
	wantDamageSentinel(t, encode(t, lying), "test-set checksum mismatch")
}

func TestParseVector(t *testing.T) {
	v, err := dictio.ParseVector("0101", 4)
	if err != nil {
		t.Fatal(err)
	}
	if v.Get(0) != 0 || v.Get(1) != 1 || v.Get(2) != 0 || v.Get(3) != 1 {
		t.Errorf("parsed bits wrong: %s", v.String(4))
	}
	if _, err := dictio.ParseVector("01", 4); err == nil {
		t.Error("short vector accepted")
	}
	if _, err := dictio.ParseVector("01x1", 4); err == nil {
		t.Error("invalid character accepted")
	}
}
