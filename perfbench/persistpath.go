package main

import (
	"bufio"
	"io"
	"os"
	"time"

	"pestrie/internal/core"
	"pestrie/internal/matrix"
)

// built is one matrix taken through core.Build and the two writers.
type built struct {
	trie       *core.Trie
	pes1, pes2 string // file paths; pes2 is "" when not written
	pes1Bytes  int64
	pes2Bytes  int64
	build      time.Duration
	write1     time.Duration
	index      time.Duration // Trie.Index, the input of the PES2 writer
	write2     time.Duration
}

// persistTime is the pay-once cost of this input after analysis.
func (b *built) persistTime() time.Duration { return b.build + b.write1 + b.index + b.write2 }

// writeFile creates path and streams wt into it through a buffer.
func writeFile(path string, wt func(io.Writer) (int64, error)) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n, err := wt(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// buildAndWrite builds pm's Pestrie, writes it as PES1 to stem.pes and,
// when v2 is set, as PES2 to stem.pes2, timing each step in a span under
// parent.
func buildAndWrite(t *tracer, parent int64, pm *matrix.PointsTo, stem string, v2 bool) (*built, error) {
	b := &built{pes1: stem + ".pes"}
	_, b.build = t.timed("core.build", parent, func() { b.trie = core.Build(pm, nil) })
	var err error
	_, b.write1 = t.timed("core.write_pes1", parent, func() { b.pes1Bytes, err = writeFile(b.pes1, b.trie.WriteTo) })
	if err != nil || !v2 {
		return b, err
	}
	b.pes2 = stem + ".pes2"
	var ix *core.Index
	_, b.index = t.timed("core.index_build", parent, func() { ix = b.trie.Index() })
	_, b.write2 = t.timed("core.write_pes2", parent, func() { b.pes2Bytes, err = writeFile(b.pes2, ix.WriteToV2) })
	return b, err
}

// loadPES1 decodes a PES1 file onto the heap.
func loadPES1(path string) (*core.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(bufio.NewReaderSize(f, 1<<20))
}
