// Package demand implements the demand-driven baseline of §7.1.1: queries
// answered directly from the points-to matrix with no precomputed alias
// information. IsAlias(p, q) intersects the points-to sets of p and q;
// ListAliases(p) runs IsAlias against every other base pointer, caching the
// result per pointer-equivalence class exactly as the paper describes ("we
// cache the querying result in cache(p); next time we query ListAliases(p')
// where p' is an equivalent pointer to p, we directly use the cached
// result").
package demand

import (
	"pestrie/internal/bitset"
	"pestrie/internal/matrix"
)

// Oracle answers pointer queries on demand from a points-to matrix.
type Oracle struct {
	pm  *matrix.PointsTo
	pmt *matrix.PointsTo // computed lazily for ListPointedBy

	// ListAliases cache, keyed by points-to set content.
	cache map[uint64][]cacheEntry
}

type cacheEntry struct {
	row     *bitset.Set
	aliases []int
}

// New returns a demand-driven oracle over pm. The matrix is not copied and
// must not be mutated afterwards.
func New(pm *matrix.PointsTo) *Oracle {
	return &Oracle{pm: pm, cache: make(map[uint64][]cacheEntry)}
}

// IsAlias intersects the points-to sets of p and q.
func (d *Oracle) IsAlias(p, q int) bool {
	return d.pm.Row(p).Intersects(d.pm.Row(q))
}

// ListAliases enumerates all pointers q ≠ p with IsAlias(p, q), consulting
// the equivalence cache first.
func (d *Oracle) ListAliases(p int) []int {
	if p < 0 || p >= d.pm.NumPointers {
		return nil
	}
	row := d.pm.Row(p)
	if row.Empty() {
		return nil
	}
	h := row.Hash()
	for _, e := range d.cache[h] {
		if e.row.Equal(row) {
			return filterOut(e.aliases, p)
		}
	}
	var aliases []int // all pointers aliased to this class, self included
	for q := 0; q < d.pm.NumPointers; q++ {
		if row.Intersects(d.pm.Row(q)) {
			aliases = append(aliases, q)
		}
	}
	d.cache[h] = append(d.cache[h], cacheEntry{row: row, aliases: aliases})
	return filterOut(aliases, p)
}

func filterOut(xs []int, p int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		if x != p {
			out = append(out, x)
		}
	}
	return out
}

// ListPointsTo returns the points-to set of p.
func (d *Oracle) ListPointsTo(p int) []int {
	if p < 0 || p >= d.pm.NumPointers {
		return nil
	}
	row := d.pm.Row(p)
	if row.Empty() {
		return nil
	}
	return row.Members()
}

// ListPointedBy returns the pointers pointing to o, computing the transpose
// on first use (a demand-driven client pays this once).
func (d *Oracle) ListPointedBy(o int) []int {
	if o < 0 || o >= d.pm.NumObjects {
		return nil
	}
	if d.pmt == nil {
		d.pmt = d.pm.Transpose()
	}
	row := d.pmt.Row(o)
	if row.Empty() {
		return nil
	}
	return row.Members()
}

// AliasPairs enumerates, via repeated IsAlias, all unordered conflicting
// pairs among the given base pointers — the race-detector workload of
// §7.1.1 ("enumerates all pairs of base pointers and uses the IsAlias query
// to determine if they have an access conflict"). The result counts pairs
// rather than materializing them, as a detector would stream them.
func (d *Oracle) AliasPairs(base []int) int {
	pairs := 0
	for i := 0; i < len(base); i++ {
		for j := i + 1; j < len(base); j++ {
			if d.IsAlias(base[i], base[j]) {
				pairs++
			}
		}
	}
	return pairs
}

// AliasPairsViaList is the second §7.1.1 method: use ListAliases on each
// base pointer and count conflicting base pairs. It returns the same count
// as AliasPairs.
func (d *Oracle) AliasPairsViaList(base []int) int {
	inBase := make(map[int]bool, len(base))
	for _, p := range base {
		inBase[p] = true
	}
	pairs := 0
	for _, p := range base {
		for _, q := range d.ListAliases(p) {
			if inBase[q] && q > p {
				pairs++
			}
		}
	}
	return pairs
}
