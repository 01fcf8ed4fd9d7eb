package bitset

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Row serialization uses the exact delta-varint coding of internal/bitmap's
// io.go — varint member count, then each member as a gap from the previous
// one — so a set persisted through this package is byte-identical to the
// same members persisted through the bitmap baseline.

// Write writes s to w as a varint count followed by delta-varint members,
// returning the number of bytes written.
func Write(w io.Writer, s *Set) (int64, error) {
	var buf [binary.MaxVarintLen64]byte
	var written int64
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		k, err := w.Write(buf[:n])
		written += int64(k)
		return err
	}
	if err := put(uint64(s.Count())); err != nil {
		return written, err
	}
	prev := 0
	var ferr error
	s.ForEach(func(i int) bool {
		if ferr = put(uint64(i - prev)); ferr != nil {
			return false
		}
		prev = i
		return true
	})
	return written, ferr
}

// maxBit bounds decoded member indexes, rejecting corrupt delta streams
// whose accumulated index would overflow the set's 32-bit member space.
// It is far above any plausible matrix dimension.
const maxBit = 1 << 32

// Read reads one serialized set from r. The gap stream decodes straight
// into the sorted member array in a single allocation (the members arrive
// ascending by construction), then promotes once at the end if the result
// is dense — skipping the incremental growth and promotion copies Set would
// do per member. The preallocation is capped so a corrupt count can't
// reserve gigabytes before the stream runs dry.
func Read(r io.ByteReader) (*Set, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("bitset: reading count: %w", err)
	}
	f := &Set{sparse: make([]uint32, 0, min(n, 1<<20))}
	cur := uint64(0)
	for i := uint64(0); i < n; i++ {
		gap, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("bitset: reading member %d/%d: %w", i, n, err)
		}
		if gap >= maxBit || cur+gap >= maxBit {
			return nil, fmt.Errorf("bitset: implausible member index %d (gap %d at member %d/%d)", cur+gap, gap, i, n)
		}
		cur += gap
		if i > 0 && gap == 0 {
			continue // duplicate member in a hand-built stream
		}
		f.sparse = append(f.sparse, uint32(cur))
	}
	if len(f.sparse) > 0 {
		loW := int(f.sparse[0] >> 6)
		hiW := int(f.sparse[len(f.sparse)-1] >> 6)
		if shouldPromote(len(f.sparse), loW, hiW) {
			f.promoteRange(loW, hiW)
		}
	}
	return f, nil
}
