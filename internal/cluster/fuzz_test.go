package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCodecRoundTrip feeds Decode arbitrary bytes, seeded with the golden
// map: it must never panic, and any map it accepts must re-encode to
// bytes that decode to the same map.
func FuzzCodecRoundTrip(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "golden", "map_unowned.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-2])
	f.Add([]byte{mapCodecVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		enc := m.Encode()
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoding of an accepted map does not decode: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("map changed across an encode/decode round trip")
		}
	})
}
