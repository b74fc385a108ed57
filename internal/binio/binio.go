// Package binio implements the primitive layer of the PIS on-disk formats:
// length-prefixed, CRC32-checksummed sections of little-endian scalars,
// varints, and flat slabs. The index image's metadata and the store's
// snapshot files are built from these sections, so corruption anywhere
// is detected at the section that holds it instead of surfacing as wrong
// answers later.
//
// A section on disk is
//
//	[u32 LE payload length][payload][u32 LE IEEE-CRC32 of payload]
//
// SectionWriter accumulates one payload in memory and emits it with
// Flush; SectionReader loads one payload with Next, verifies the
// checksum, and then decodes with sticky-error getters.
package binio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// MaxSectionLen caps a section payload; a corrupted length prefix must
// not become a multi-gigabyte allocation.
const MaxSectionLen = 1 << 30

// SectionWriter buffers one section payload and writes framed sections.
type SectionWriter struct {
	w   io.Writer
	buf []byte
}

// NewSectionWriter returns a writer emitting sections to w.
func NewSectionWriter(w io.Writer) *SectionWriter { return &SectionWriter{w: w} }

// Begin starts a new (empty) section payload.
func (sw *SectionWriter) Begin() { sw.buf = sw.buf[:0] }

// Len returns the current payload size.
func (sw *SectionWriter) Len() int { return len(sw.buf) }

// U8 appends one byte.
func (sw *SectionWriter) U8(v byte) { sw.buf = append(sw.buf, v) }

// Bool appends v as one byte, 1 or 0, as SectionReader.Bool reads it.
func (sw *SectionWriter) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	sw.U8(b)
}

// U32 appends a little-endian uint32.
func (sw *SectionWriter) U32(v uint32) { sw.buf = binary.LittleEndian.AppendUint32(sw.buf, v) }

// U64 appends a little-endian uint64.
func (sw *SectionWriter) U64(v uint64) { sw.buf = binary.LittleEndian.AppendUint64(sw.buf, v) }

// F64 appends a little-endian float64.
func (sw *SectionWriter) F64(v float64) { sw.U64(math.Float64bits(v)) }

// Uvarint appends an unsigned varint.
func (sw *SectionWriter) Uvarint(v uint64) { sw.buf = binary.AppendUvarint(sw.buf, v) }

// Varint appends a zigzag-encoded signed varint.
func (sw *SectionWriter) Varint(v int64) { sw.buf = binary.AppendVarint(sw.buf, v) }

// Bytes appends raw bytes.
func (sw *SectionWriter) Bytes(b []byte) { sw.buf = append(sw.buf, b...) }

// I32Slab appends vals as a flat little-endian int32 slab (no count; the
// caller writes the length separately).
func (sw *SectionWriter) I32Slab(vals []int32) {
	for _, v := range vals {
		sw.U32(uint32(v))
	}
}

// F64Slab appends vals as a flat little-endian float64 slab.
func (sw *SectionWriter) F64Slab(vals []float64) {
	for _, v := range vals {
		sw.F64(v)
	}
}

// Flush frames the accumulated payload as one section and writes it. A
// payload larger than MaxSectionLen is refused at write time — the
// reader enforces the same cap, so an oversized section would be a
// checkpoint that can never be loaded; callers chunk instead.
func (sw *SectionWriter) Flush() error {
	if len(sw.buf) > MaxSectionLen {
		return fmt.Errorf("binio: section payload %d bytes exceeds the %d cap; chunk it", len(sw.buf), MaxSectionLen)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(sw.buf)))
	if _, err := sw.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := sw.w.Write(sw.buf); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(hdr[:], crc32.ChecksumIEEE(sw.buf))
	_, err := sw.w.Write(hdr[:])
	return err
}

// SectionReader loads framed sections and decodes payloads with
// sticky-error getters: after any decode error every getter returns zero
// values and Err reports the first failure. Getters accept only what the
// SectionWriter's setters write — minimal varints, bools as 0 or 1 — so a
// decoded payload re-encodes to the bytes it was read from.
type SectionReader struct {
	r   io.Reader
	buf []byte
	pos int
	err error
}

// NewSectionReader returns a reader consuming sections from r.
func NewSectionReader(r io.Reader) *SectionReader { return &SectionReader{r: r} }

// Next reads and checksums the next section, making it the current
// payload. io.EOF is returned verbatim at a clean section boundary so
// callers can distinguish "no more sections" from a torn one.
func (sr *SectionReader) Next() error {
	if sr.err != nil {
		return sr.err
	}
	var hdr [4]byte
	if _, err := io.ReadFull(sr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("binio: torn section header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxSectionLen {
		return fmt.Errorf("binio: section length %d exceeds cap", n)
	}
	// A reader that knows what it has left (a bytes.Reader over an
	// in-memory image) lets a corrupt length fail before it is allocated.
	if l, ok := sr.r.(interface{ Len() int }); ok && int(n) > l.Len() {
		return fmt.Errorf("binio: torn section payload: %w", io.ErrUnexpectedEOF)
	}
	if cap(sr.buf) < int(n) {
		sr.buf = make([]byte, n)
	}
	sr.buf = sr.buf[:n]
	if _, err := io.ReadFull(sr.r, sr.buf); err != nil {
		return fmt.Errorf("binio: torn section payload: %w", err)
	}
	if _, err := io.ReadFull(sr.r, hdr[:]); err != nil {
		return fmt.Errorf("binio: torn section checksum: %w", err)
	}
	if want, got := binary.LittleEndian.Uint32(hdr[:]), crc32.ChecksumIEEE(sr.buf); want != got {
		return fmt.Errorf("binio: section checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	sr.pos = 0
	return nil
}

// Err returns the first decode error of the current section.
func (sr *SectionReader) Err() error { return sr.err }

// Remaining returns the undecoded byte count of the current section.
func (sr *SectionReader) Remaining() int { return len(sr.buf) - sr.pos }

func (sr *SectionReader) fail(what string) {
	if sr.err == nil {
		sr.err = fmt.Errorf("binio: truncated %s at offset %d", what, sr.pos)
	}
}

// Malformed records a decode error for a value that was read whole but is
// out of range or not in the form the writer produces.
func (sr *SectionReader) Malformed(what string) {
	if sr.err == nil {
		sr.err = fmt.Errorf("binio: malformed %s at offset %d", what, sr.pos)
	}
}

// take returns the next n payload bytes, or nil after a decode error.
func (sr *SectionReader) take(n int, what string) []byte {
	if sr.err != nil {
		return nil
	}
	if n < 0 || sr.pos+n > len(sr.buf) {
		sr.fail(what)
		return nil
	}
	b := sr.buf[sr.pos : sr.pos+n]
	sr.pos += n
	return b
}

// U8 decodes one byte.
func (sr *SectionReader) U8() byte {
	b := sr.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool decodes one byte, which must be 0 or 1.
func (sr *SectionReader) Bool() bool {
	b := sr.U8()
	if b > 1 {
		sr.Malformed("bool")
	}
	return b == 1
}

// U32 decodes a little-endian uint32.
func (sr *SectionReader) U32() uint32 {
	b := sr.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 decodes a little-endian uint64.
func (sr *SectionReader) U64() uint64 {
	b := sr.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 decodes a little-endian float64.
func (sr *SectionReader) F64() float64 { return math.Float64frombits(sr.U64()) }

// Uvarint decodes an unsigned varint in its minimal encoding.
func (sr *SectionReader) Uvarint() uint64 {
	if sr.err != nil {
		return 0
	}
	v, n := binary.Uvarint(sr.buf[sr.pos:])
	if n <= 0 {
		sr.fail("uvarint")
		return 0
	}
	// A minimal encoding ends in a non-zero group (or is the single byte
	// 0): a trailing zero group only pads the same value.
	if n > 1 && sr.buf[sr.pos+n-1] == 0 {
		sr.Malformed("uvarint")
		return 0
	}
	sr.pos += n
	return v
}

// Varint decodes a zigzag-encoded signed varint in its minimal encoding.
func (sr *SectionReader) Varint() int64 {
	u := sr.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count decodes a uvarint element count and bounds it so a corrupted
// count cannot drive a huge allocation: each element occupies at least
// minBytes payload bytes, so more elements than Remaining()/minBytes is
// malformed by construction.
func (sr *SectionReader) Count(minBytes int, what string) int {
	n := sr.Uvarint()
	if sr.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(sr.Remaining()/minBytes) {
		if sr.err == nil {
			sr.err = fmt.Errorf("binio: %s count %d exceeds section payload", what, n)
		}
		return 0
	}
	return int(n)
}

// slab returns the n*width bytes of an n-value slab. It checks n against
// what the section holds before multiplying, so a corrupt count can
// neither wrap n*width to a small size nor size an allocation by itself.
func (sr *SectionReader) slab(n, width int, what string) []byte {
	if n < 0 || n > sr.Remaining()/width {
		sr.fail(what)
		return nil
	}
	return sr.take(n*width, what)
}

// I32Slab decodes n little-endian int32 values.
func (sr *SectionReader) I32Slab(n int) []int32 {
	b := sr.slab(n, 4, "int32 slab")
	if b == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// F64Slab decodes n little-endian float64 values.
func (sr *SectionReader) F64Slab(n int) []float64 {
	b := sr.slab(n, 8, "float64 slab")
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Bytes decodes n raw bytes (aliasing the section buffer; copy to keep).
func (sr *SectionReader) Bytes(n int) []byte { return sr.take(n, "bytes") }
