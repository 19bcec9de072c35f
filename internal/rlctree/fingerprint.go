package rlctree

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// Fingerprint is a content hash of a tree: its topology, section names and
// exact element values. Two trees have equal fingerprints iff they were
// built from the same sequence of sections (same names, same parent
// indices, bit-identical R/L/C), which is exactly the condition under
// which every analysis derived from the tree — sums, second-order models,
// closed-form metrics — is identical. It is the key of the resident-net
// registry in internal/engine.
type Fingerprint [sha256.Size]byte

// Fingerprint returns the tree's content hash. The hash is computed in one
// O(n) pass and cached against the tree's generation counter, so repeated
// calls on an unchanged tree are a mutex acquire and a copy; any mutation
// — adding a section, an element edit through SetR/SetL/SetC, attaching,
// detaching or splitting — bumps the generation and forces a recompute on the next
// call (fingerprint-delta invalidation). Clone preserves the fingerprint.
//
// The cache makes Fingerprint safe for concurrent readers of an otherwise
// unmodified tree.
func (t *Tree) Fingerprint() Fingerprint {
	t.fpMu.Lock()
	defer t.fpMu.Unlock()
	if t.fpValid && t.fpGen == t.gen {
		return t.fp
	}
	h := sha256.New()
	var buf [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putU64(uint64(len(t.sections)))
	for i, s := range t.sections {
		// Parent index, with ^0 marking attachment to the input node.
		pi := ^uint64(0)
		if p := t.parentIdx[i]; p >= 0 {
			pi = uint64(p)
		}
		putU64(pi)
		// Length-prefixed name keeps the encoding injective across
		// adjacent-name boundaries ("ab"+"c" vs "a"+"bc").
		putU64(uint64(len(s.name)))
		h.Write([]byte(s.name))
		putU64(math.Float64bits(t.r[i]))
		putU64(math.Float64bits(t.l[i]))
		putU64(math.Float64bits(t.c[i]))
	}
	h.Sum(t.fp[:0])
	t.fpGen, t.fpValid = t.gen, true
	return t.fp
}
