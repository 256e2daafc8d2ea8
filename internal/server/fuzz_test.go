package server

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzCodecRoundTrip drives every Fields function (codecCases: each
// frame payload, both record payloads, each unit of the snapshot) with
// arbitrary bytes, seeded with the golden encodings. The contract:
//
//   - decoding never panics, whatever the bytes;
//   - decoding never allocates out of proportion to its input — the
//     Count guards hold, so a corrupt length cannot buy a huge make;
//   - whatever decodes cleanly re-encodes to bytes that decode to an
//     equal value (equal by the system's own measure: the same bytes).
func FuzzCodecRoundTrip(f *testing.F) {
	cases := codecCases()
	for i, c := range cases {
		f.Add(uint8(i), c.encode())
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		c := cases[int(which)%len(cases)]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, reenc, err := c.decode(data)
		runtime.ReadMemStats(&after)
		// The widest in-memory element is a few hundred bytes against a
		// guarded minimum of 8 on the wire; 256x plus slack covers it.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); grew > limit {
			t.Fatalf("%s: decoding %d bytes allocated %d (limit %d)", c.name, len(data), grew, limit)
		}
		if err != nil {
			return
		}
		_, again, err := c.decode(reenc)
		if err != nil {
			t.Fatalf("%s: re-encoding of a clean decode does not decode: %v", c.name, err)
		}
		if !bytes.Equal(again, reenc) {
			t.Fatalf("%s: value changed across an encode/decode round trip:\n% x\n% x", c.name, reenc, again)
		}
	})
}
