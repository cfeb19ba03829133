// Package dictio defines the versioned on-disk artifact format for
// published dictionaries — the deployable unit cmd/sdd -publish writes
// and internal/serve loads. An artifact wraps a compiled
// dictionary (core.Compiled) with the provenance a diagnosis service
// needs (circuit name, test-set type, seed, per-fault class names) and
// enough redundancy to detect damage: every section carries a CRC32C,
// so truncation, torn tails, and single bit-flips are all detected at
// load time instead of silently corrupting diagnoses.
//
// Layout (all integers little-endian):
//
//	preamble   magic u32 ("SDDA") · format version u32 · section count u32
//	section ×n id u32 · payload length u64 · payload · CRC32C(payload) u32
//
// Section 1 is the JSON header, section 2 the compiled-dictionary
// payload (core.Compiled wire format). The decoder rejects unknown
// section ids, short files, trailing garbage, checksum mismatches, and
// implausible lengths with errors wrapping ErrCorruptArtifact; files
// written by a newer format version are rejected with
// ErrArtifactVersion so the operator upgrades instead of misparsing.
// The decoder never panics on hostile bytes.
//
// Artifacts are written only through core.AtomicWriteFile, so a crashed
// publish leaves the previous artifact (or nothing) at the destination,
// never a torn file. The CRCs exist for the failure modes atomic
// rename cannot exclude: storage bit rot, partial copies between
// machines, and non-atomic transports.
package dictio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"sddict/internal/core"
	"sddict/internal/faultfs"
	"sddict/internal/logic"
)

// Sentinel errors, matched with errors.Is.
var (
	// ErrCorruptArtifact marks any structural damage: truncation, bad
	// magic, checksum mismatch, trailing bytes, implausible dimensions.
	ErrCorruptArtifact = errors.New("dictio: corrupt artifact")
	// ErrArtifactVersion marks a structurally plausible artifact written
	// by a different (typically newer) format version.
	ErrArtifactVersion = errors.New("dictio: unsupported artifact format version")
)

const (
	// Magic identifies an artifact file; it differs from the magic
	// ("SDDC") of the compiled-dictionary payload it wraps.
	Magic uint32 = 0x41444453 // "SDDA" as little-endian bytes

	// FormatVersion is the version this build writes and reads.
	FormatVersion uint32 = 1

	// Decoder sanity bounds: a corrupt length field must fail fast, not
	// drive a multi-gigabyte allocation.
	maxSections     = 16
	maxSectionBytes = 1 << 30
)

// Section ids. Unknown ids are a decode error: forward compatibility is
// carried by FormatVersion, not by silently skipped sections.
const (
	secHeader uint32 = 1
	secDict   uint32 = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Header is the artifact's provenance record (JSON section 1). Faults
// is the fault-class table: Faults[i] names the fault behind dictionary
// row i (e.g. "g42 s-a-1"), so a diagnosis can report circuit-level
// names without the netlist at hand. TestChecksum is the test-set
// identity: a CRC32C over the baseline output vectors and dimensions,
// so two artifacts built from the same circuit can be told apart when
// their test sets differ (the case store keys recall on it, and
// correlation uses it to spot the same defect class surviving a
// test-set revision). New is the only writer; Decode recomputes it for
// the cross-check and fills it in for artifacts published before the
// field existed.
type Header struct {
	Circuit      string   `json:"circuit"`
	TestSet      string   `json:"test_set"`
	TestChecksum string   `json:"test_checksum,omitempty"`
	Seed         int64    `json:"seed"`
	Kind         string   `json:"kind"`
	Tests        int      `json:"tests"`
	Outputs      int      `json:"outputs"`
	Faults       []string `json:"faults"`
}

// Artifact is one decoded dictionary artifact. Checksum is the CRC32C
// of the complete encoded byte stream — the content identity the serve
// registry keys its cache on (path + checksum).
type Artifact struct {
	Header   Header
	Dict     *core.Compiled
	Checksum uint32
}

// New assembles an artifact from a compiled dictionary and its
// provenance, cross-checking the header dimensions against the payload.
func New(dict *core.Compiled, h Header) (*Artifact, error) {
	h.Kind = dict.Kind.String()
	h.Tests = dict.NumTests
	h.Outputs = dict.Outputs
	h.TestChecksum = TestSetChecksum(dict)
	if len(h.Faults) != len(dict.Rows) {
		return nil, fmt.Errorf("dictio: %d fault names for %d dictionary rows", len(h.Faults), len(dict.Rows))
	}
	return &Artifact{Header: h, Dict: dict}, nil
}

// TestSetChecksum computes the test-set identity of a compiled
// dictionary: a CRC32C over the dimensions and every baseline output
// vector (fault-free, baseline, and the two-baseline extension when
// present), rendered as the same 8-hex-digit string the artifact
// checksum uses. Two dictionaries share a TestSetChecksum exactly when
// they were built against the same tests with the same expected
// outputs — the identity recall and correlation key on.
func TestSetChecksum(dict *core.Compiled) string {
	sum := crc32.New(castagnoli)
	var b [8]byte
	le := binary.LittleEndian
	word := func(w uint64) {
		le.PutUint64(b[:], w)
		sum.Write(b[:])
	}
	word(uint64(dict.NumTests))
	word(uint64(dict.Outputs))
	vecs := func(vs []logic.BitVec) {
		for _, v := range vs {
			for _, w := range v {
				word(w)
			}
		}
	}
	vecs(dict.FaultFree)
	vecs(dict.Baseline)
	if dict.ExtraBaseline != nil {
		word(1) // domain-separate the two-baseline layout
		vecs(dict.ExtraBaseline)
	}
	return fmt.Sprintf("%08x", sum.Sum32())
}

// corruptf wraps ErrCorruptArtifact with context.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("dictio: "+format+": %w", append(args, ErrCorruptArtifact)...)
}

// Encode writes the artifact to w and records the stream's CRC32C in
// a.Checksum — the same identity Decode computes, so a publish can
// report the checksum a later load will verify against.
func (a *Artifact) Encode(w io.Writer) error {
	hdr, err := json.Marshal(a.Header)
	if err != nil {
		return fmt.Errorf("dictio: encoding header: %w", err)
	}
	var dict bytes.Buffer
	if _, err := a.Dict.WriteTo(&dict); err != nil {
		return fmt.Errorf("dictio: encoding dictionary payload: %w", err)
	}

	sum := crc32.New(castagnoli)
	out := io.MultiWriter(w, sum)
	le := binary.LittleEndian
	var preamble [12]byte
	le.PutUint32(preamble[0:4], Magic)
	le.PutUint32(preamble[4:8], FormatVersion)
	le.PutUint32(preamble[8:12], 2) // section count
	if _, err := out.Write(preamble[:]); err != nil {
		return fmt.Errorf("dictio: writing preamble: %w", err)
	}
	for _, sec := range []struct {
		id      uint32
		payload []byte
	}{
		{secHeader, hdr},
		{secDict, dict.Bytes()},
	} {
		var sh [12]byte
		le.PutUint32(sh[0:4], sec.id)
		le.PutUint64(sh[4:12], uint64(len(sec.payload)))
		if _, err := out.Write(sh[:]); err != nil {
			return fmt.Errorf("dictio: writing section %d: %w", sec.id, err)
		}
		if _, err := out.Write(sec.payload); err != nil {
			return fmt.Errorf("dictio: writing section %d: %w", sec.id, err)
		}
		var crcb [4]byte
		le.PutUint32(crcb[:], crc32.Checksum(sec.payload, castagnoli))
		if _, err := out.Write(crcb[:]); err != nil {
			return fmt.Errorf("dictio: writing section %d checksum: %w", sec.id, err)
		}
	}
	a.Checksum = sum.Sum32()
	return nil
}

// Save publishes the artifact at path through core.AtomicWriteFile: a
// crash mid-publish leaves the destination untouched.
func (a *Artifact) Save(path string) error {
	if err := core.AtomicWriteFile(path, a.Encode); err != nil {
		return fmt.Errorf("dictio: publishing %s: %w", path, err)
	}
	return nil
}

// readFull fills buf from r, mapping every flavour of a short read onto
// ErrCorruptArtifact: the format has no optional trailing data, so
// running out of bytes means the file was truncated or torn. Genuine
// I/O failures (not EOF) keep their own identity so a flaky-media error
// is distinguishable from a corruption verdict.
func readFull(r io.Reader, buf []byte, what string) error {
	_, err := io.ReadFull(r, buf)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return corruptf("truncated in %s", what)
	default:
		return fmt.Errorf("dictio: reading %s: %w", what, err)
	}
}

// Decode parses one artifact from r, verifying every section checksum
// before trusting its payload. It returns wrapped sentinels — never
// panics — on damaged or foreign input.
func Decode(r io.Reader) (*Artifact, error) {
	sum := crc32.New(castagnoli)
	cr := io.TeeReader(r, sum)
	le := binary.LittleEndian

	var preamble [12]byte
	if err := readFull(cr, preamble[:], "preamble"); err != nil {
		return nil, err
	}
	if m := le.Uint32(preamble[0:4]); m != Magic {
		return nil, corruptf("bad magic %#08x (want %#08x)", m, Magic)
	}
	if v := le.Uint32(preamble[4:8]); v != FormatVersion {
		return nil, fmt.Errorf("dictio: artifact format version %d, this build reads version %d: %w",
			v, FormatVersion, ErrArtifactVersion)
	}
	nsec := le.Uint32(preamble[8:12])
	if nsec == 0 || nsec > maxSections {
		return nil, corruptf("implausible section count %d", nsec)
	}

	var hdrPayload, dictPayload []byte
	for i := uint32(0); i < nsec; i++ {
		var sh [12]byte
		if err := readFull(cr, sh[:], "section header"); err != nil {
			return nil, err
		}
		id := le.Uint32(sh[0:4])
		length := le.Uint64(sh[4:12])
		if length > maxSectionBytes {
			return nil, corruptf("section %d claims %d bytes", id, length)
		}
		// Copy incrementally instead of allocating `length` upfront: a
		// bit-flipped length field below the cap must fail after the real
		// bytes run out, not drive a gigabyte allocation first.
		var pbuf bytes.Buffer
		switch _, err := io.CopyN(&pbuf, cr, int64(length)); {
		case err == nil:
		case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
			return nil, corruptf("truncated in section %d payload", id)
		default:
			return nil, fmt.Errorf("dictio: reading section %d payload: %w", id, err)
		}
		payload := pbuf.Bytes()
		var crcb [4]byte
		if err := readFull(cr, crcb[:], fmt.Sprintf("section %d checksum", id)); err != nil {
			return nil, err
		}
		if got, want := crc32.Checksum(payload, castagnoli), le.Uint32(crcb[:]); got != want {
			return nil, corruptf("section %d checksum mismatch: computed %#08x, stored %#08x", id, got, want)
		}
		switch id {
		case secHeader:
			hdrPayload = payload
		case secDict:
			dictPayload = payload
		default:
			return nil, corruptf("unknown section id %d", id)
		}
	}
	var tail [1]byte
	if n, _ := cr.Read(tail[:]); n != 0 {
		return nil, corruptf("trailing bytes after final section")
	}
	if hdrPayload == nil {
		return nil, corruptf("missing header section")
	}
	if dictPayload == nil {
		return nil, corruptf("missing dictionary section")
	}

	// The payload's own header claims its dimensions; the payload must
	// be exactly that long before ReadCompiled allocates for them.
	switch n, err := core.CompiledSize(dictPayload); {
	case err != nil:
		return nil, fmt.Errorf("dictio: parsing dictionary payload: %w: %w", err, ErrCorruptArtifact)
	case n != int64(len(dictPayload)):
		return nil, corruptf("dictionary payload has %d bytes, its header describes %d", len(dictPayload), n)
	}
	var h Header
	if err := json.Unmarshal(hdrPayload, &h); err != nil {
		return nil, fmt.Errorf("dictio: parsing header (checksum passed, encoder bug?): %w: %w", err, ErrCorruptArtifact)
	}
	dict, err := core.ReadCompiled(bytes.NewReader(dictPayload))
	if err != nil {
		return nil, fmt.Errorf("dictio: parsing dictionary payload: %w: %w", err, ErrCorruptArtifact)
	}
	// Cross-check the two sections against each other: each CRC only
	// vouches for its own bytes, not for their agreement.
	switch {
	case h.Tests != dict.NumTests:
		return nil, corruptf("header says %d tests, dictionary has %d", h.Tests, dict.NumTests)
	case h.Outputs != dict.Outputs:
		return nil, corruptf("header says %d outputs, dictionary has %d", h.Outputs, dict.Outputs)
	case len(h.Faults) != len(dict.Rows):
		return nil, corruptf("header names %d faults, dictionary has %d rows", len(h.Faults), len(dict.Rows))
	case h.Kind != dict.Kind.String():
		return nil, corruptf("header kind %q, dictionary kind %q", h.Kind, dict.Kind)
	}
	switch tc := TestSetChecksum(dict); {
	case h.TestChecksum == "":
		// Published before the field existed: adopt the computed
		// identity in memory so downstream consumers always see one.
		h.TestChecksum = tc
	case h.TestChecksum != tc:
		return nil, corruptf("header test-set checksum %s, dictionary baselines hash to %s", h.TestChecksum, tc)
	}
	return &Artifact{Header: h, Dict: dict, Checksum: sum.Sum32()}, nil
}

// Load reads and verifies the artifact at path.
func Load(path string) (*Artifact, error) { return LoadFS(faultfs.OS, path) }

// LoadFS is Load through an injectable filesystem — the seam the
// fault-injection tests use to fail reads mid-stream.
func LoadFS(fsys faultfs.FS, path string) (*Artifact, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dictio: opening %s: %w", path, err)
	}
	defer f.Close()
	a, err := Decode(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// ParseVector parses one 0/1 response line into a bit vector of exactly
// `outputs` bits — the ATE log format shared by sdd -dump-responses,
// cmd/sddload and the /diagnose endpoint.
func ParseVector(s string, outputs int) (logic.BitVec, error) {
	if len(s) != outputs {
		return nil, fmt.Errorf("dictio: vector has %d bits, dictionary has %d outputs", len(s), outputs)
	}
	v := logic.NewBitVec(outputs)
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			v.Set(i, 1)
		default:
			return nil, fmt.Errorf("dictio: invalid character %q in response vector", c)
		}
	}
	return v, nil
}

// ParseVectors parses a batch of response lines (one per test).
func ParseVectors(lines []string, outputs int) ([]logic.BitVec, error) {
	out := make([]logic.BitVec, len(lines))
	for i, s := range lines {
		v, err := ParseVector(strings.TrimSpace(s), outputs)
		if err != nil {
			return nil, fmt.Errorf("response %d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}
