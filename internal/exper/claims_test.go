package exper

import (
	"bytes"
	"math"
	"testing"

	"pestrie/internal/bdd"
	"pestrie/internal/bitenc"
	"pestrie/internal/core"
	"pestrie/internal/synth"
)

// TestPaperClaims gates the paper's size and count claims (Table 7 query
// memory, Table 8 encoding sizes, Figure 1 equivalence ratios) at the
// default scale over all 12 presets. It checks only deterministic
// quantities — footprints, file sizes and class ratios, never timings — so
// its verdict is the same on any machine. The bands are set around what the
// default commands produce, with the paper's figures noted alongside.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates all 12 presets at the default scale")
	}
	var (
		memWins, sizeWins, bddWins, bddRows int
		memLog, sizeLog, bddLog             float64
	)
	workloads := buildWorkloads(nil)
	for _, w := range workloads {
		var pesFile, bitFile bytes.Buffer
		if _, err := core.Build(w.pm, nil).WriteTo(&pesFile); err != nil {
			t.Fatal(err)
		}
		if _, err := bitenc.Encode(w.pm).WriteTo(&bitFile); err != nil {
			t.Fatal(err)
		}
		sizePes, sizeBit := int64(pesFile.Len()), int64(bitFile.Len())
		pes, err := core.Load(bytes.NewReader(pesFile.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		bit, err := bitenc.Load(bytes.NewReader(bitFile.Bytes()))
		if err != nil {
			t.Fatal(err)
		}

		// Table 7: query memory of the decoded structures.
		memPes, memBit := pes.MemoryFootprint(), bit.MemoryFootprint()
		if memPes <= memBit {
			memWins++
		}
		memLog += math.Log(float64(memBit) / float64(memPes))

		// Table 8: persisted sizes.
		if sizePes < sizeBit {
			sizeWins++
		}
		sizeLog += math.Log(float64(sizeBit) / float64(sizePes))
		sizeBDD := int64(0)
		if w.preset.Analysis == synth.JavaObjSensitive {
			sizeBDD = bdd.EncodeMatrix(w.pm).NodeTableSize()
			bddRows++
			if sizePes < sizeBDD {
				bddWins++
			}
			bddLog += math.Log(float64(sizeBDD) / float64(sizePes))
		}
		t.Logf("%-10s mem pes=%d bit=%d | size pes=%d bit=%d bdd=%d",
			w.preset.Name, memPes, memBit, sizePes, sizeBit, sizeBDD)
	}
	n := len(workloads)
	if n != 12 || bddRows != 4 {
		t.Fatalf("expected 12 presets with 4 BDD rows, got %d and %d", n, bddRows)
	}

	memGeo := math.Exp(memLog / float64(n))
	if memWins < 8 || memGeo <= 1.0 {
		t.Errorf("Table 7: PesP query memory <= BitP on %d/12 (want >= 8), BitP/PesP geomean %.2f× (want > 1)",
			memWins, memGeo)
	}
	sizeGeo := math.Exp(sizeLog / float64(n))
	if sizeWins != n || sizeGeo < 10 {
		t.Errorf("Table 8: PesP smaller than BitP on %d/12 (want 12), BitP/PesP geomean %.1f× (want >= 10; paper 10.5×)",
			sizeWins, sizeGeo)
	}
	bddGeo := math.Exp(bddLog / float64(bddRows))
	if bddWins != bddRows || bddGeo < 10 {
		t.Errorf("Table 8: PesP smaller than BDD on %d/%d (want all), BDD/PesP geomean %.1f× (want >= 10; paper 17.5×)",
			bddWins, bddRows, bddGeo)
	}

	var ptr, obj float64
	for _, r := range Figure1(nil) {
		ptr += r.PointerRatio
		obj += r.ObjectRatio
	}
	ptr /= float64(n)
	obj /= float64(n)
	if ptr < 0.10 || ptr > 0.25 {
		t.Errorf("Figure 1: average pointer-class ratio %.1f%%, want [10%%, 25%%] (paper 18.5%%)", 100*ptr)
	}
	if obj < 0.60 || obj > 0.95 {
		t.Errorf("Figure 1: average object-class ratio %.1f%%, want [60%%, 95%%] (paper 83%%)", 100*obj)
	}
	t.Logf("Table 7 memory: %d/12 wins, geomean %.2f×; Table 8: BitP/PesP %.1f×, BDD/PesP %.1f×; Figure 1: %.1f%% / %.1f%%",
		memWins, memGeo, sizeGeo, bddGeo, 100*ptr, 100*obj)
}
