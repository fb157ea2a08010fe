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

// partition is the V1/V2/V3 classification DENSEPROTOCOL and the Corollary
// 5.9 monitor keep of the n node ids: one class per id, the three sizes, and
// the ids that were not V3 when the epoch opened. Within an epoch a node
// only moves out of V2 (into V1 or V3), so filtering members by class
// enumerates V1 or V2 in ascending id at a cost of k + σ, not n.
type partition struct {
	of      []class
	size    [numClasses]int
	members []int
}

func newPartition(n int) partition {
	p := partition{of: make([]class, n)}
	p.size[classV3] = n
	return p
}

// classify opens an epoch: the ids reported in high form V1, those in mid
// V2, every other node V3. An id reported twice (the fault layer can
// duplicate a report) keeps its first class.
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
	slices.Sort(p.members)
}

func (p *partition) admit(id int, c class) {
	if p.of[id] == classV3 {
		p.move(id, c)
		p.members = append(p.members, id)
	}
}

// in reports whether node id is classified c.
func (p *partition) in(id int, c class) bool { return p.of[id] == c }

// move reclassifies node id as c.
func (p *partition) move(id int, c class) {
	p.size[p.of[id]]--
	p.of[id] = c
	p.size[c]++
}

// appendIDs appends the ids classified c — V1 or V2 — to dst in ascending
// order.
func (p *partition) appendIDs(dst []int, c class) []int {
	for _, id := range p.members {
		if p.of[id] == c {
			dst = append(dst, id)
		}
	}
	return dst
}
