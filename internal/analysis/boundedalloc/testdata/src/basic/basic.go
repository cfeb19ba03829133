// Fixture: intra-procedural taint from decoded integers to allocation
// sites, and the bound checks that clear it.
package basic

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"strconv"
)

const limit = 1 << 16

var errTooBig = errors.New("too big")

// Bounded before allocation: clean.
func bounded(header []byte) ([]byte, error) {
	n := binary.BigEndian.Uint64(header)
	if n > limit {
		return nil, errTooBig
	}
	return make([]byte, n), nil
}

// Decoded straight into make: flagged.
func unbounded(header []byte) []byte {
	n := binary.BigEndian.Uint32(header)
	return make([]byte, n) // want "make sized by `n` from binary.Uint32 without a bound check"
}

// The cap argument is a size too.
func unboundedCap(header []byte) []int {
	n := binary.LittleEndian.Uint16(header)
	return make([]int, 0, n) // want "make sized by `n` from binary.Uint16 without a bound check"
}

// Arithmetic propagates taint.
func scaled(header []byte) []byte {
	n := binary.BigEndian.Uint32(header)
	return make([]byte, int(n)*8) // want "make sized by .* from binary.Uint32 without a bound check"
}

// Masking with a constant is a bound.
func masked(header []byte) []byte {
	n := binary.BigEndian.Uint64(header)
	return make([]byte, n&0xffff)
}

// The min builtin bounds by construction.
func viaMin(header []byte) []byte {
	n := binary.BigEndian.Uint64(header)
	return make([]byte, min(n, limit))
}

// Varint readers taint their first result.
func varint(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	return make([]byte, n), nil // want "make sized by `n` from binary.ReadUvarint without a bound check"
}

// strconv results are untrusted until compared.
func fromString(s string) []byte {
	n, err := strconv.Atoi(s)
	if err != nil {
		return nil
	}
	return make([]byte, n) // want "make sized by `n` from strconv.Atoi without a bound check"
}

// Buffer.Grow is a sink like make.
func grow(buf *bytes.Buffer, s string) {
	n, _ := strconv.Atoi(s)
	buf.Grow(n) // want "Buffer.Grow sized by `n` from strconv.Atoi without a bound check"
}

// Comparing against anything counts as the bound check.
func comparedLater(s string, have int) []byte {
	n, _ := strconv.Atoi(s)
	if n > have {
		return nil
	}
	return make([]byte, n)
}

// Reassignment from a trusted value clears the taint.
func reassigned(s string) []byte {
	n, _ := strconv.Atoi(s)
	n = 16
	return make([]byte, n)
}

// The dimension guard of an old dictionary reader: a sign check bounds
// nothing, and the int64 product of two decoded uint32 dimensions can
// wrap negative, so a hostile pair passes the guard. Not a bound.
func overflowingProductGuard(hdr []byte) ([][]uint64, error) {
	nFaults, k, m := int(binary.LittleEndian.Uint32(hdr)), int(binary.LittleEndian.Uint32(hdr[4:])), int(binary.LittleEndian.Uint32(hdr[8:]))
	if nFaults < 0 || k <= 0 || m <= 0 ||
		int64(nFaults)*int64(k) > limit || int64(k)*int64(m) > limit {
		return nil, errTooBig
	}
	return make([][]uint64, nFaults), nil // want "make sized by `nFaults` from binary.Uint32 without a bound check"
}

// The fixed guard caps each factor before forming the product: clean.
func cappedProductGuard(hdr []byte) ([][]uint64, error) {
	nFaults, k := binary.LittleEndian.Uint32(hdr), binary.LittleEndian.Uint32(hdr[4:])
	if k == 0 || nFaults > limit || k > limit || uint64(nFaults)*uint64(k) > limit {
		return nil, errTooBig
	}
	return make([][]uint64, nFaults), nil
}

// A uint64 product of two uint32 values cannot wrap, so comparing it is
// still a bound check.
func widenedProductGuard(hdr []byte) []uint64 {
	n, k := binary.LittleEndian.Uint32(hdr), binary.LittleEndian.Uint32(hdr[4:])
	if uint64(n)*uint64(k) > limit {
		return nil
	}
	return make([]uint64, n)
}

// A zero check alone bounds nothing.
func zeroCheckOnly(s string) []byte {
	n, _ := strconv.Atoi(s)
	if n == 0 {
		return nil
	}
	return make([]byte, n) // want "make sized by `n` from strconv.Atoi without a bound check"
}
