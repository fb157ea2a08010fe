package protocol

import (
	"slices"

	"topkmon/internal/wire"
)

// class is a node's side of the V1/V2/V3 partition of Section 5.2. V3 —
// "cannot be in an optimal output", where all but the k + σ nodes around
// the reference value sit — is the zero value, so a cleared partition is
// the all-V3 one.
type class uint8

const (
	classV3 class = iota
	classV1
	classV2
	numClasses
)

// view names one of the two pairs of S-sets a V2 node can belong to:
// DENSEPROTOCOL's S1/S2 or SUBPROTOCOL's S′1/S′2.
type view uint8

const (
	denseView view = iota
	subView
	numViews
)

// sides is a V2 node's membership in one view's pair of sets. Its four
// values are the four V2 tags (classTag).
type sides uint8

const (
	inS1  sides = 1 << iota // S1, or S′1 in the sub view
	inS2                    // S2, or S′2
	inS12 = inS1 | inS2
)

// slot is one node's entry: its class and, while it is in V2, its
// memberships in both views. A node outside V2 is in no S-set.
type slot struct {
	class class
	in    [numViews]sides
}

// partition is the V1/V2/V3 classification DENSEPROTOCOL and the Corollary
// 5.9 monitor keep of the n node ids, with DENSE's S-sets as bits beside
// each class: one slot per id, the three class sizes, the V2 nodes counted
// by their memberships in each view, and the ids that were not V3 when the
// epoch opened. Within an epoch a node only moves out of V2 (into V1 or
// V3), so filtering members enumerates V1, V2 or any S-set in ascending id
// at a cost of k + σ, not n, and the counts give every set's size without
// a pass.
type partition struct {
	of      []slot
	size    [numClasses]int
	tally   [numViews][inS12 + 1]int
	members []int
}

func newPartition(n int) partition {
	p := partition{of: make([]slot, n)}
	p.size[classV3] = n
	return p
}

// classify opens an epoch: the ids reported in high form V1, those in mid
// V2 with no S-set memberships, every other node V3. An id reported twice
// (the fault layer can duplicate a report) keeps its first class.
func (p *partition) classify(high, mid []wire.Report) {
	clear(p.of)
	p.size = [numClasses]int{classV3: len(p.of)}
	p.members = p.members[:0]
	for _, r := range high {
		p.admit(r.ID, classV1)
	}
	for _, r := range mid {
		p.admit(r.ID, classV2)
	}
	p.tally = [numViews][inS12 + 1]int{{p.size[classV2]}, {p.size[classV2]}}
	slices.Sort(p.members)
}

func (p *partition) admit(id int, c class) {
	if p.of[id].class == classV3 {
		p.move(id, c)
		p.members = append(p.members, id)
	}
}

// in reports whether node id is classified c.
func (p *partition) in(id int, c class) bool { return p.of[id].class == c }

// move reclassifies node id as c; a node leaving V2 leaves every S-set.
func (p *partition) move(id int, c class) {
	s := &p.of[id]
	if s.class == classV2 {
		for v, m := range s.in {
			p.tally[v][m]--
		}
		s.in = [numViews]sides{}
	}
	p.size[s.class]--
	s.class = c
	p.size[c]++
}

// sides returns the V2 node id's memberships under view v.
func (p *partition) sides(id int, v view) sides { return p.of[id].in[v] }

// put sets the V2 node id's memberships under view v to m.
func (p *partition) put(id int, v view, m sides) {
	s := &p.of[id]
	p.tally[v][s.in[v]]--
	p.tally[v][m]++
	s.in[v] = m
}

// join adds the V2 node id to the sets m under view v.
func (p *partition) join(id int, v view, m sides) { p.put(id, v, p.sides(id, v)|m) }

// count returns how many nodes are in every set of m under view v: |S1|
// for inS1, |S1∩S2| for inS12.
func (p *partition) count(v view, m sides) int {
	n := 0
	for in, c := range p.tally[v] {
		if sides(in)&m == m {
			n += c
		}
	}
	return n
}

// disband empties the sets m under view v.
func (p *partition) disband(v view, m sides) {
	for _, id := range p.members {
		if p.sides(id, v)&m != 0 {
			p.put(id, v, p.sides(id, v)&^m)
		}
	}
}

// copyS1 sets S′1 := S1, leaving S′2 as it is.
func (p *partition) copyS1() {
	for _, id := range p.members {
		if p.in(id, classV2) {
			p.put(id, subView, p.sides(id, subView)&^inS1|p.sides(id, denseView)&inS1)
		}
	}
}

// appendIDs appends the ids classified c — V1 or V2 — to dst in ascending
// order.
func (p *partition) appendIDs(dst []int, c class) []int {
	for _, id := range p.members {
		if p.in(id, c) {
			dst = append(dst, id)
		}
	}
	return dst
}
