package cluster

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current encoders")

// goldenMap is a map whose every encoded field is distinct: three nodes,
// five shards, shard 3 unowned, and an assignment that differs from the
// consistent-hash placement so a decoder that recomputed would show.
func goldenMap(t *testing.T) *Map {
	t.Helper()
	nodes := []Node{
		{Name: "alpha", Addr: "10.0.0.1:7101"},
		{Name: "bravo", Addr: "10.0.0.2:7102"},
		{Name: "charlie", Addr: "10.0.0.3:7103"},
	}
	m, err := Assemble(0x1122334455667788, nodes, 5, []string{"charlie", "alpha", "bravo", "", "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGoldenMap(t *testing.T) {
	m := goldenMap(t)
	got := m.Encode()
	path := filepath.Join("testdata", "golden", "map_unowned.bin")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Encode wrote % x, golden map is % x", got, want)
	}

	dec, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Version != m.Version || dec.Shards != m.Shards || !reflect.DeepEqual(dec.Nodes, m.Nodes) {
		t.Errorf("golden map decoded to %+v, want %+v", dec, m)
	}
	if !reflect.DeepEqual(dec.OwnerNames(), m.OwnerNames()) {
		t.Errorf("golden map owners decoded to %q, want %q", dec.OwnerNames(), m.OwnerNames())
	}
	if un := dec.Unassigned(); !reflect.DeepEqual(un, []int{3}) {
		t.Errorf("golden map unassigned = %v, want [3]", un)
	}
	if _, err := Decode(append(want[:len(want):len(want)], 0)); err == nil {
		t.Errorf("golden map decoded cleanly with a trailing byte")
	}
}
