package bitenc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pestrie/internal/matrix"
	"pestrie/internal/synth"
)

// goldenFixed is a hand-built matrix that exercises every BIT1 section:
// merged pointer and object classes, an empty pointer class, an object
// nobody points to, and members spread over several 128-bit blocks.
func goldenFixed() *matrix.PointsTo {
	pm := matrix.New(9, 300)
	for _, f := range [][2]int{
		{0, 0}, {0, 1}, {0, 299},
		{1, 0}, {1, 1}, {1, 299}, // same set as pointer 0
		{2, 130}, {2, 131}, {2, 257},
		{3, 1}, {3, 130},
		{5, 64}, {5, 127}, {5, 128},
		{6, 64}, {6, 127}, {6, 128}, // same set as pointer 5
		{7, 200},
		{8, 0}, {8, 200}, {8, 257},
	} {
		pm.Add(f[0], f[1])
	}
	return pm
}

// TestBIT1Golden pins the exact bytes of the BIT1 format: the SHA-256 of
// WriteTo over a fixed matrix and over one synthetic preset. Any change to
// class numbering, row order or the delta-varint row coding shows up here,
// and a Load → WriteTo round trip must reproduce the same bytes.
func TestBIT1Golden(t *testing.T) {
	cases := []struct {
		name string
		pm   func() *matrix.PointsTo
		want string
	}{
		{"fixed", goldenFixed, "ee9fd218526ede01876f2315503229c69170015dc03eaa83154a1d1cb424069e"},
		{"antlr@0.002", func() *matrix.PointsTo {
			return synth.PresetByName("antlr").Generate(0.002)
		}, "bba77261fa18dbbcdce1a736e57756db3ea4dd809504c6c1e1bdd22b7e47bf7e"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := Encode(c.pm()).WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("BIT1 sha256 = %s, want %s (%d bytes)", got, c.want, buf.Len())
			}
			loaded, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if _, err := loaded.WriteTo(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), buf.Bytes()) {
				t.Error("Load → WriteTo does not reproduce the file")
			}
		})
	}
}
