package anders

// Offline HVN (hash-based value numbering) pointer-equivalence
// substitution, after Hardekopf & Lin ("The Ant and the Grasshopper",
// PLDI'07). Before any propagation runs, every variable receives a label
// such that two variables with the same label provably have identical
// points-to sets at the least fixpoint; equal-labelled variables are merged
// into one solver node, so the propagation phase never performs their
// duplicate work.
//
// Labelling walks the offline copy graph (the copy constraints; loads and
// stores contribute no offline edges) in topological order of its SCC
// condensation:
//
//   - An *indirect* node — one whose points-to set can grow through edges
//     added online, i.e. every load destination and every heap cell — gets
//     a fresh label: nothing can be proven about it offline.
//   - A direct node's set is exactly the union of its predecessors' sets
//     plus its own base (allocation) seeds, so its label is interned from
//     the set {labels of predecessor classes} ∪ {per-site alloc labels}.
//     The empty set gets the distinguished label 0 (provably empty); a
//     singleton {L} *is* label L — the node's set equals class L's set,
//     collapsing unary copy chains; larger sets intern to one label per
//     distinct set.
//   - A copy SCC is one class outright: its members' sets coincide at the
//     fixpoint whatever flows in, so an indirect SCC shares one fresh
//     label and a direct SCC is labelled from the union of its members'
//     external inputs.
//
// Soundness rests on a property of this constraint system: online edge
// insertion only ever *targets* indirect nodes (load destinations and heap
// cells), so a direct node's inflow is fully visible offline. Classes with
// a fresh label are exactly one SCC, whose members are equal by the cycle
// argument even under online growth.

import (
	"encoding/binary"

	"pestrie/internal/bitset"
)

// unionFind tracks merged solver nodes. The representative of a class is
// always its minimum member ID, so merge results are independent of merge
// order — part of the engine's determinism guarantee.
type unionFind struct {
	parent []nodeID
	nreps  int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]nodeID, n), nreps: n}
	for i := range uf.parent {
		uf.parent[i] = nodeID(i)
	}
	return uf
}

func (u *unionFind) find(v nodeID) nodeID {
	for u.parent[v] != v {
		u.parent[v] = u.parent[u.parent[v]] // path halving
		v = u.parent[v]
	}
	return v
}

// union merges the classes of a and b and returns the representative (the
// smaller of the two class minima).
func (u *unionFind) union(a, b nodeID) nodeID {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return ra
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.nreps--
	return ra
}

// reps returns the number of equivalence classes.
func (u *unionFind) reps() int { return u.nreps }

// tarjanSCC computes the strongly connected components of the graph on
// nodes [0, n) with the given successor lists, iteratively (solver graphs
// contain copy chains far deeper than the goroutine stack guard). SCCs are
// emitted successors-first: iterating the result backwards visits every
// component before any of its successors, i.e. predecessors-first.
func tarjanSCC(n int, succs [][]nodeID) [][]nodeID {
	index := make([]int, n) // 0 = unvisited, else order+1
	lowlink := make([]int, n)
	onStack := make([]bool, n)
	stack := make([]nodeID, 0, n)
	var sccs [][]nodeID

	type frame struct {
		v nodeID
		i int // next successor to examine
	}
	var frames []frame
	next := 1
	for root := 0; root < n; root++ {
		if index[root] != 0 {
			continue
		}
		index[root], lowlink[root] = next, next
		next++
		stack = append(stack, nodeID(root))
		onStack[root] = true
		frames = append(frames[:0], frame{nodeID(root), 0})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.i < len(succs[v]) {
				w := succs[v][f.i]
				f.i++
				if index[w] == 0 {
					index[w], lowlink[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < lowlink[v] {
					lowlink[v] = index[w]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].v; lowlink[v] < lowlink[p] {
					lowlink[p] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				var scc []nodeID
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}

// hvn runs the offline substitution pass, recording every discovered
// equivalence in uf. Labels: 0 = provably empty; 1..len(objName) = the
// alloc label of object (label-1); larger values are fresh or interned.
func (s *solver) hvn(uf *unionFind) {
	n := len(s.varName)
	succs := make([][]nodeID, n)
	preds := make([][]nodeID, n)
	for _, e := range s.copyC {
		succs[e[0]] = append(succs[e[0]], e[1])
		preds[e[1]] = append(preds[e[1]], e[0])
	}
	indirect := make([]bool, n)
	for _, e := range s.loadC {
		indirect[e[1]] = true
	}
	for _, ov := range s.objVar {
		indirect[ov] = true
	}
	baseLabels := make([][]int, n)
	for _, b := range s.base {
		baseLabels[b[0]] = append(baseLabels[b[0]], b[1]+1)
	}

	sccs := tarjanSCC(n, succs)
	sccOf := make([]int, n)
	for i, scc := range sccs {
		for _, v := range scc {
			sccOf[v] = i
		}
	}

	label := make([]int, n)
	nextLabel := len(s.objName) + 1
	fresh := func() int {
		l := nextLabel
		nextLabel++
		return l
	}
	interned := map[string]int{}
	var key []byte
	// Label sets are tiny (a handful of distinct inflow labels per SCC), so
	// the hybrid set stays in its sorted-array form; ForEach iterates
	// ascending, replacing the old map + sort.Ints dance.
	var set *bitset.Set

	// Reverse emission order = predecessors first, so every predecessor
	// label is final when read.
	for i := len(sccs) - 1; i >= 0; i-- {
		scc := sccs[i]
		ind := false
		for _, v := range scc {
			if indirect[v] {
				ind = true
				break
			}
		}
		var L int
		if ind {
			L = fresh()
		} else {
			set = bitset.New()
			for _, v := range scc {
				for _, l := range baseLabels[v] {
					set.Set(l)
				}
				for _, p := range preds[v] {
					// Intra-SCC inflow is the class itself; label-0 inflow
					// is provably empty. Neither adds anything.
					if sccOf[p] != i && label[p] != 0 {
						set.Set(label[p])
					}
				}
			}
			switch set.Count() {
			case 0:
				L = 0
			case 1:
				L = set.Min()
			default:
				key = key[:0]
				set.ForEach(func(l int) bool {
					key = binary.AppendUvarint(key, uint64(l))
					return true
				})
				if id, ok := interned[string(key)]; ok {
					L = id
				} else {
					L = fresh()
					interned[string(key)] = L
				}
			}
		}
		for _, v := range scc {
			label[v] = L
		}
	}

	// Merge equal labels. Scanning in node-ID order makes the class
	// representative the minimum-ID member regardless of SCC layout.
	labelRep := make(map[int]nodeID, n)
	for v := 0; v < n; v++ {
		if r, ok := labelRep[label[v]]; ok {
			uf.union(r, nodeID(v))
		} else {
			labelRep[label[v]] = nodeID(v)
		}
	}
}
