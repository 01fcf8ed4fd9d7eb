// Package bitenc implements the bitmap persistence baseline ("BitP") the
// paper compares Pestrie against (§2.1, §7): the points-to matrix PM and the
// alias matrix AM = PM × PMᵀ are stored as sparse bitmaps after merging
// equivalent pointers and objects. Queries are answered directly from the
// bitmaps, so IsAlias costs a bitmap bit-lookup — O(n) through the linked
// block list — while ListAliases is a pre-computed row expansion.
//
// Every class-level row is an internal/bitmap linked bitmap, the GCC
// structure the paper measures (§7); this package is its only owner. The
// rest of the pipeline runs on internal/bitset, whose row format the BIT1
// matrix sections share.
package bitenc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"pestrie/internal/bitmap"
	"pestrie/internal/matrix"
	"pestrie/internal/safeio"
)

const (
	bitMagic   = "BIT1"
	bitVersion = 1
)

// Encoding is the in-memory BitP structure: class-compressed PM, its
// transpose, and the class-level alias matrix, one linked bitmap per row.
// As with GCC's bitmaps, a lookup moves the row's block cache, so an
// Encoding must not be queried from several goroutines at once.
type Encoding struct {
	NumPointers int
	NumObjects  int

	ptrClassOf []int // pointer -> pointer class
	objClassOf []int // object -> object class
	ptrMembers [][]int32
	objMembers [][]int32

	pm  []*bitmap.Sparse // pointer class -> object classes
	pmt []*bitmap.Sparse // object class -> pointer classes
	am  []*bitmap.Sparse // pointer class -> aliased pointer classes
}

// Encode builds the BitP encoding of pm: detect pointer and object
// equivalence classes, compress PM to class granularity, and materialize
// the alias matrix over pointer classes.
func Encode(pm *matrix.PointsTo) *Encoding {
	ptrClassOf, nPtrClasses := pm.EquivalenceClasses()
	objClassOf, nObjClasses := pm.ObjectEquivalenceClasses()

	e := &Encoding{
		NumPointers: pm.NumPointers,
		NumObjects:  pm.NumObjects,
		ptrClassOf:  ptrClassOf,
		objClassOf:  objClassOf,
		pm:          newRows(nPtrClasses),
	}
	e.buildMembers()
	for c, members := range e.ptrMembers {
		row := e.pm[c]
		pm.Row(int(members[0])).ForEach(func(o int) bool {
			row.Set(objClassOf[o])
			return true
		})
	}
	e.pmt = transpose(e.pm, nObjClasses)
	e.am = make([]*bitmap.Sparse, nPtrClasses)
	for c, row := range e.pm {
		am := bitmap.New()
		row.ForEach(func(o int) bool {
			am.Or(e.pmt[o])
			return true
		})
		e.am[c] = am
	}
	return e
}

func newRows(n int) []*bitmap.Sparse {
	rows := make([]*bitmap.Sparse, n)
	for i := range rows {
		rows[i] = bitmap.New()
	}
	return rows
}

// transpose returns the cols × len(rows) transpose of a row matrix. Rows
// are visited in ascending order, so every Set appends at the tail the
// block cache already points at.
func transpose(rows []*bitmap.Sparse, cols int) []*bitmap.Sparse {
	out := newRows(cols)
	for r, row := range rows {
		row.ForEach(func(c int) bool {
			out[c].Set(r)
			return true
		})
	}
	return out
}

func (e *Encoding) buildMembers() {
	maxPtr, maxObj := 0, 0
	for _, c := range e.ptrClassOf {
		if c+1 > maxPtr {
			maxPtr = c + 1
		}
	}
	for _, c := range e.objClassOf {
		if c+1 > maxObj {
			maxObj = c + 1
		}
	}
	e.ptrMembers = make([][]int32, maxPtr)
	for p, c := range e.ptrClassOf {
		e.ptrMembers[c] = append(e.ptrMembers[c], int32(p))
	}
	e.objMembers = make([][]int32, maxObj)
	for o, c := range e.objClassOf {
		e.objMembers[c] = append(e.objMembers[c], int32(o))
	}
}

// IsAlias reports whether p and q may alias: an AM bit test at class
// granularity.
func (e *Encoding) IsAlias(p, q int) bool {
	if p < 0 || p >= e.NumPointers || q < 0 || q >= e.NumPointers {
		return false
	}
	return e.am[e.ptrClassOf[p]].Test(e.ptrClassOf[q])
}

// ListAliases returns the pointers aliased to p, excluding p itself.
func (e *Encoding) ListAliases(p int) []int {
	if p < 0 || p >= e.NumPointers {
		return nil
	}
	var out []int
	e.am[e.ptrClassOf[p]].ForEach(func(c int) bool {
		for _, q := range e.ptrMembers[c] {
			if int(q) != p {
				out = append(out, int(q))
			}
		}
		return true
	})
	return out
}

// ListPointsTo returns the objects p may point to.
func (e *Encoding) ListPointsTo(p int) []int {
	if p < 0 || p >= e.NumPointers {
		return nil
	}
	var out []int
	e.pm[e.ptrClassOf[p]].ForEach(func(c int) bool {
		for _, o := range e.objMembers[c] {
			out = append(out, int(o))
		}
		return true
	})
	return out
}

// ListPointedBy returns the pointers that may point to o.
func (e *Encoding) ListPointedBy(o int) []int {
	if o < 0 || o >= e.NumObjects {
		return nil
	}
	var out []int
	e.pmt[e.objClassOf[o]].ForEach(func(c int) bool {
		for _, q := range e.ptrMembers[c] {
			out = append(out, int(q))
		}
		return true
	})
	return out
}

// blockBytes is the footprint of one 128-bit linked-bitmap block: index,
// two words and list link, GCC's element size ballpark.
const blockBytes = 40

// MemoryFootprint estimates the resident size of the query structure in
// bytes: the blocks of the PM, PMT and AM rows plus the class maps. Row
// list heads are not counted, so empty rows are free.
func (e *Encoding) MemoryFootprint() int64 {
	var n int64
	for _, rows := range [][]*bitmap.Sparse{e.pm, e.pmt, e.am} {
		for _, row := range rows {
			n += int64(row.Blocks()) * blockBytes
		}
	}
	return n + int64(len(e.ptrClassOf)+len(e.objClassOf))*8
}

// WriteTo writes the persistent BitP file: class maps, the class-level PM,
// and the class-level AM. (PMT is recomputed at load.) Returns bytes
// written.
func (e *Encoding) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		k := binary.PutUvarint(buf[:], v)
		n, err := bw.Write(buf[:k])
		written += int64(n)
		return err
	}
	n, err := bw.WriteString(bitMagic)
	written += int64(n)
	if err != nil {
		return written, err
	}
	for _, v := range []uint64{bitVersion, uint64(e.NumPointers), uint64(e.NumObjects)} {
		if err := put(v); err != nil {
			return written, err
		}
	}
	for _, c := range e.ptrClassOf {
		if err := put(uint64(c)); err != nil {
			return written, err
		}
	}
	for _, c := range e.objClassOf {
		if err := put(uint64(c)); err != nil {
			return written, err
		}
	}
	k, err := writeRows(bw, e.pm, len(e.pmt))
	written += k
	if err != nil {
		return written, err
	}
	k, err = writeRows(bw, e.am, len(e.am))
	written += k
	if err != nil {
		return written, err
	}
	return written, bw.Flush()
}

// writeRows frames a row matrix exactly as a PTM1 points-to matrix: the
// matrix header, then every row in bitmap's delta-varint coding.
func writeRows(w io.Writer, rows []*bitmap.Sparse, cols int) (int64, error) {
	written, err := matrix.WriteHeader(w, len(rows), cols)
	if err != nil {
		return written, err
	}
	for _, row := range rows {
		k, err := row.WriteTo(w)
		written += k
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// readRows reads a row matrix written by writeRows, applying the checks
// matrix.Read does: bounded dimensions, allocation that grows with the
// input rather than with the header's claims, and no member outside the
// declared columns.
func readRows(br *bufio.Reader) (rows []*bitmap.Sparse, cols int, err error) {
	n, cols, err := matrix.ReadHeader(br)
	if err != nil {
		return nil, 0, err
	}
	rows = make([]*bitmap.Sparse, 0, safeio.Cap(n))
	for i := 0; i < n; i++ {
		row := bitmap.New()
		if err := row.ReadFrom(br); err != nil {
			return nil, 0, fmt.Errorf("matrix: row %d: %w", i, err)
		}
		if max := row.Max(); max >= cols {
			return nil, 0, fmt.Errorf("matrix: row %d: object %d out of range [0,%d)", i, max, cols)
		}
		rows = append(rows, row)
	}
	return rows, cols, nil
}

// EncodedSize returns the BitP file size in bytes without real I/O.
func (e *Encoding) EncodedSize() int64 {
	n, _ := e.WriteTo(discard{})
	return n
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Load reads a BitP file written by WriteTo.
func Load(r io.Reader) (*Encoding, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(bitMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("bitenc: reading magic: %w", err)
	}
	if string(magic) != bitMagic {
		return nil, fmt.Errorf("bitenc: bad magic %q", magic)
	}
	u := func(what string) (int, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("bitenc: reading %s: %w", what, err)
		}
		if v > 1<<30 {
			return 0, fmt.Errorf("bitenc: implausible %s %d", what, v)
		}
		return int(v), nil
	}
	ver, err := u("version")
	if err != nil {
		return nil, err
	}
	if ver != bitVersion {
		return nil, fmt.Errorf("bitenc: unsupported version %d", ver)
	}
	e := &Encoding{}
	if e.NumPointers, err = u("pointer count"); err != nil {
		return nil, err
	}
	if e.NumObjects, err = u("object count"); err != nil {
		return nil, err
	}
	// Class maps grow as entries arrive instead of trusting the header
	// counts, so a truncated file claiming 2³⁰ pointers fails on a short
	// read instead of forcing a multi-GiB allocation.
	e.ptrClassOf = make([]int, 0, safeio.Cap(e.NumPointers))
	for i := 0; i < e.NumPointers; i++ {
		c, err := u("pointer class")
		if err != nil {
			return nil, err
		}
		e.ptrClassOf = append(e.ptrClassOf, c)
	}
	e.objClassOf = make([]int, 0, safeio.Cap(e.NumObjects))
	for i := 0; i < e.NumObjects; i++ {
		c, err := u("object class")
		if err != nil {
			return nil, err
		}
		e.objClassOf = append(e.objClassOf, c)
	}
	var pmCols, amCols int
	if e.pm, pmCols, err = readRows(br); err != nil {
		return nil, fmt.Errorf("bitenc: PM: %w", err)
	}
	if e.am, amCols, err = readRows(br); err != nil {
		return nil, fmt.Errorf("bitenc: AM: %w", err)
	}
	// Encode numbers classes densely, so the class matrices must agree
	// exactly with the class maps: PM is nPtrClasses × nObjClasses and AM
	// is square over pointer classes. Anything else would let row bits
	// index past the member tables built from the maps.
	nPtr, nObj := 0, 0
	for _, c := range e.ptrClassOf {
		if c+1 > nPtr {
			nPtr = c + 1
		}
	}
	for _, c := range e.objClassOf {
		if c+1 > nObj {
			nObj = c + 1
		}
	}
	if len(e.pm) != nPtr || pmCols != nObj {
		return nil, fmt.Errorf("bitenc: class PM is %d×%d but class maps define %d×%d classes",
			len(e.pm), pmCols, nPtr, nObj)
	}
	if len(e.am) != nPtr || amCols != nPtr {
		return nil, fmt.Errorf("bitenc: AM is %d×%d, want %d×%d over pointer classes",
			len(e.am), amCols, nPtr, nPtr)
	}
	e.pmt = transpose(e.pm, nObj)
	e.buildMembers()
	return e, nil
}
