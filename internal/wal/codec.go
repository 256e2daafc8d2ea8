package wal

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// The codec is deliberately fixed-width little-endian: every value has
// exactly one encoding, so two runs that reach the same logical state
// produce byte-identical snapshots — the property the crash-recovery
// equivalence tests compare on. Floats round-trip through IEEE-754 bits,
// times through (IsZero, UnixNano) so the zero time survives exactly.

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func putU64(b []byte, v uint64) {
	putU32(b[0:4], uint32(v))
	putU32(b[4:8], uint32(v>>32))
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b[0:4])) | uint64(getU32(b[4:8]))<<32
}

// Encoder appends fixed-width binary values to a reusable buffer. The
// zero value is ready; Reset between uses keeps the capacity, so encoding
// on the round hot path allocates nothing once warmed.
type Encoder struct {
	buf []byte
}

// Reset empties the buffer, keeping capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded buffer, valid until the next Reset.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the encoded length so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.U32(uint32(v))
	e.U32(uint32(v >> 32))
}

// I64 appends an int64 as its two's-complement bits.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte string, with Str's wire layout.
func (e *Encoder) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Time appends a time as (IsZero, UnixNano): the zero time decodes back
// to exactly time.Time{}, every other time to its UTC instant.
func (e *Encoder) Time(t time.Time) {
	e.Bool(t.IsZero())
	if t.IsZero() {
		e.I64(0)
	} else {
		e.I64(t.UnixNano())
	}
}

// ErrDecode is the base error for malformed codec input.
var ErrDecode = errors.New("wal: decode")

// Decoder reads values written by Encoder. The first failure latches into
// Err; subsequent reads return zero values, so call sites can decode a
// whole structure and check Err once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a buffer for decoding.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first latched failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: short buffer reading %s at offset %d", ErrDecode, what, d.off)
	}
}

func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil || d.off+n > len(d.buf) {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4, "u32")
	if b == nil {
		return 0
	}
	return getU32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8, "u64")
	if b == nil {
		return 0
	}
	return getU64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.prefixed("string")) }

// Blob reads a length-prefixed byte string into a fresh slice.
func (d *Decoder) Blob() []byte { return append([]byte(nil), d.prefixed("blob")...) }

// prefixed returns the bytes behind a u32 length prefix, aliasing the
// decode buffer.
func (d *Decoder) prefixed(what string) []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if int64(n) > int64(d.Remaining()) {
		d.fail(what)
		return nil
	}
	return d.take(int(n), what)
}

// Time reads a time written by Encoder.Time.
func (d *Decoder) Time() time.Time {
	zero := d.Bool()
	ns := d.I64()
	if d.err != nil || zero {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// Count reads a u32 element count and validates it against the bytes that
// remain, given a minimum encoded size per element — a corrupted count
// then fails fast instead of provoking a huge allocation.
func (d *Decoder) Count(minElemSize int, what string) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if minElemSize > 0 && int64(n)*int64(minElemSize) > int64(d.Remaining()) {
		if d.err == nil {
			d.err = fmt.Errorf("%w: %s count %d exceeds remaining %d bytes", ErrDecode, what, n, d.Remaining())
		}
		return 0
	}
	return int(n)
}

// Codec runs one field description in either direction. A type's bytes
// are defined by a single function
//
//	func xFields(c *wal.Codec, v *X) { c.U64(&v.A); c.Str(&v.B); ... }
//
// which writes v when c encodes and fills v when c decodes, so a writer
// and a reader that disagree about a layout cannot be expressed. The zero
// value encodes into its own reusable buffer (Reset/Bytes, as Encoder);
// DecodeFrom makes one that decodes. Encoding only ever reads through the
// pointers, so a value shared between goroutines may be encoded
// concurrently.
type Codec struct {
	enc      Encoder
	dec      Decoder
	decoding bool
}

// DecodeFrom returns a Codec that fills values from buf.
func DecodeFrom(buf []byte) Codec { return Codec{dec: Decoder{buf: buf}, decoding: true} }

// Marshal returns *v's encoding under its one description.
func Marshal[T any](fields func(*Codec, *T), v *T) []byte {
	var c Codec
	fields(&c, v)
	return c.Bytes()
}

// Unmarshal fills *v from a payload that must hold exactly one T: a short
// payload and trailing bytes are both errors (see Finish).
func Unmarshal[T any](fields func(*Codec, *T), payload []byte, what string, v *T) error {
	c := DecodeFrom(payload)
	fields(&c, v)
	return c.Finish(what)
}

// Decoding reports the direction: descriptions put their read-only side
// effects (installing a decoded value somewhere) behind it.
func (c *Codec) Decoding() bool { return c.decoding }

// Reset empties the encode buffer, keeping capacity.
func (c *Codec) Reset() { c.enc.Reset() }

// Bytes returns the encoded buffer, valid until the next Reset.
func (c *Codec) Bytes() []byte { return c.enc.Bytes() }

// Err returns the first latched failure, or nil.
func (c *Codec) Err() error { return c.dec.err }

// Fail latches a semantic failure — decoding, a bad version byte, say;
// encoding, a value the format cannot represent — unless an earlier one
// is already latched; later reads yield zero values. A nil err is no
// failure.
func (c *Codec) Fail(err error) {
	if c.dec.err == nil {
		c.dec.err = err
	}
}

// Finish ends a decode: the latched failure if any, else an error when
// bytes remain unread — a payload is exactly one value, never a value
// plus garbage. Encoding, nil unless Fail was called.
func (c *Codec) Finish(what string) error {
	if c.dec.err != nil {
		return fmt.Errorf("decoding %s: %w", what, c.dec.err)
	}
	if n := c.dec.Remaining(); n != 0 {
		return fmt.Errorf("decoding %s: %w: %d trailing bytes", what, ErrDecode, n)
	}
	return nil
}

// U8 runs one byte.
func (c *Codec) U8(v *uint8) {
	if c.decoding {
		*v = c.dec.U8()
	} else {
		c.enc.U8(*v)
	}
}

// U32 runs a little-endian uint32.
func (c *Codec) U32(v *uint32) {
	if c.decoding {
		*v = c.dec.U32()
	} else {
		c.enc.U32(*v)
	}
}

// U64 runs a little-endian uint64.
func (c *Codec) U64(v *uint64) {
	if c.decoding {
		*v = c.dec.U64()
	} else {
		c.enc.U64(*v)
	}
}

// I64 runs an int64 as its two's-complement bits.
func (c *Codec) I64(v *int64) {
	if c.decoding {
		*v = c.dec.I64()
	} else {
		c.enc.I64(*v)
	}
}

// F64 runs a float64 as its IEEE-754 bits.
func (c *Codec) F64(v *float64) {
	if c.decoding {
		*v = c.dec.F64()
	} else {
		c.enc.F64(*v)
	}
}

// Bool runs a bool as one byte.
func (c *Codec) Bool(v *bool) {
	if c.decoding {
		*v = c.dec.Bool()
	} else {
		c.enc.Bool(*v)
	}
}

// Str runs a length-prefixed string.
func (c *Codec) Str(v *string) {
	if c.decoding {
		*v = c.dec.Str()
	} else {
		c.enc.Str(*v)
	}
}

// Blob runs a length-prefixed byte string — Str's wire layout without the
// string conversions; decoding copies once, into a fresh slice.
func (c *Codec) Blob(v *[]byte) {
	if c.decoding {
		*v = c.dec.Blob()
	} else {
		c.enc.Blob(*v)
	}
}

// Time runs a time as (IsZero, UnixNano).
func (c *Codec) Time(v *time.Time) {
	if c.decoding {
		*v = c.dec.Time()
	} else {
		c.enc.Time(*v)
	}
}

// Count runs an element count: u32(*n) when encoding, Decoder.Count's
// guarded read when decoding — minElemSize is the smallest encoding of
// one element, so a corrupt count cannot provoke a huge allocation.
func (c *Codec) Count(n *int, minElemSize int, what string) {
	if c.decoding {
		*n = c.dec.Count(minElemSize, what)
	} else {
		c.enc.U32(uint32(*n))
	}
}

// Int runs a named integer field that rides as an i64.
func Int[T ~int | ~int64](c *Codec, v *T) {
	if c.decoding {
		*v = T(c.dec.I64())
	} else {
		c.enc.I64(int64(*v))
	}
}

// IntU32 runs a non-negative int field that rides as a u32. Decoding
// never yields a negative int, whatever the platform's int width.
func (c *Codec) IntU32(v *int) {
	if !c.decoding {
		c.enc.U32(uint32(*v))
		return
	}
	u := c.dec.U32()
	if *v = int(u); *v < 0 {
		*v = 0
		c.Fail(fmt.Errorf("%w: u32 value %d overflows int", ErrDecode, u))
	}
}

// Slice runs a counted sequence: the count (guarded by minElemSize when
// decoding, see Count), then elem over every element in order. Decoding
// always yields a non-nil slice.
func Slice[T any](c *Codec, s *[]T, minElemSize int, what string, elem func(*Codec, *T)) {
	n := len(*s)
	c.Count(&n, minElemSize, what)
	if c.decoding {
		*s = make([]T, n)
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}
