// Package btree implements a page-structured B+tree that lives entirely in
// a region of the unified memory-storage hierarchy — the index structure a
// Shore-MT-style storage manager keeps its tables in (§5.6). Every node is
// one 4 KB page accessed through the hierarchy, so index traversals exhibit
// the real access pattern the paper's database experiments depend on: a
// hot, promoted root/inner level and a cold, byte-accessed leaf level.
//
// Keys and values are uint64. The tree supports Insert (upsert), Get, and
// ascending range Scan; node splits propagate to the root. Durability is
// the hierarchy's business (the region can be persistent or volatile).
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"flatflash/internal/core"
)

// PageSize is the node size; it must match the hierarchy's page size.
const PageSize = 4096

// Node layout:
//
//	offset 0:  uint16 nodeType (1 = leaf, 2 = internal)
//	offset 2:  uint16 count
//	offset 4:  uint32 rightSibling (leaf only; node index + 1, 0 = none)
//	offset 8:  entries
//
// Leaf entries:    count * (key uint64, value uint64)         -> max 255
// Internal layout: child0 uint32, then count * (key uint64, child uint32)
//
// Internal node semantics: keys < key[0] go to child0; keys in
// [key[i], key[i+1]) go to child[i].
const (
	typeLeaf     = 1
	typeInternal = 2

	hdrSize     = 8
	leafEntry   = 16
	maxLeafKeys = (PageSize - hdrSize) / leafEntry // 255
	intEntry    = 12
	maxIntKeys  = (PageSize - hdrSize - 4) / intEntry // 340
)

// Errors.
var (
	ErrFull     = errors.New("btree: region out of node pages")
	ErrNotFound = errors.New("btree: key not found")
)

// Tree is a B+tree over hierarchy pages.
type Tree struct {
	h      core.Hierarchy
	region core.Region
	nodes  int // capacity in node pages
	used   int
	root   int
	height int

	// scratch buffers to avoid per-access allocation
	page [PageSize]byte

	reads, writes int64
}

// New allocates a tree inside h using a region of nodePages pages.
func New(h core.Hierarchy, nodePages int) (*Tree, error) {
	if nodePages < 3 {
		return nil, fmt.Errorf("btree: need at least 3 node pages, got %d", nodePages)
	}
	region, err := h.Mmap(uint64(nodePages) * PageSize)
	if err != nil {
		return nil, err
	}
	t := &Tree{h: h, region: region, nodes: nodePages, height: 1}
	root, err := t.allocNode(typeLeaf)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

func (t *Tree) nodeAddr(n int) uint64 { return t.region.Base + uint64(n)*PageSize }

func (t *Tree) allocNode(nodeType uint16) (int, error) {
	if t.used >= t.nodes {
		return 0, ErrFull
	}
	n := t.used
	t.used++
	var hdr [hdrSize]byte
	binary.LittleEndian.PutUint16(hdr[0:], nodeType)
	if _, err := t.h.Write(t.nodeAddr(n), hdr[:]); err != nil {
		return 0, err
	}
	return n, nil
}

// readNode loads node n into t.page.
func (t *Tree) readNode(n int) error {
	t.reads++
	_, err := t.h.Read(t.nodeAddr(n), t.page[:])
	return err
}

// writeNode stores buf as node n.
func (t *Tree) writeNode(n int, buf []byte) error {
	t.writes++
	_, err := t.h.Write(t.nodeAddr(n), buf)
	return err
}

type nodeView struct {
	typ     uint16
	count   int
	sibling int
	data    []byte
}

func view(data []byte) nodeView {
	return nodeView{
		typ:     binary.LittleEndian.Uint16(data[0:]),
		count:   int(binary.LittleEndian.Uint16(data[2:])),
		sibling: int(binary.LittleEndian.Uint32(data[4:])),
		data:    data,
	}
}

func (v nodeView) leafKey(i int) uint64 {
	return binary.LittleEndian.Uint64(v.data[hdrSize+i*leafEntry:])
}

func (v nodeView) leafVal(i int) uint64 {
	return binary.LittleEndian.Uint64(v.data[hdrSize+i*leafEntry+8:])
}

func (v nodeView) setLeaf(i int, k, val uint64) {
	binary.LittleEndian.PutUint64(v.data[hdrSize+i*leafEntry:], k)
	binary.LittleEndian.PutUint64(v.data[hdrSize+i*leafEntry+8:], val)
}

func (v nodeView) child0() int {
	return int(binary.LittleEndian.Uint32(v.data[hdrSize:]))
}

func (v nodeView) intKey(i int) uint64 {
	return binary.LittleEndian.Uint64(v.data[hdrSize+4+i*intEntry:])
}

func (v nodeView) intChild(i int) int {
	return int(binary.LittleEndian.Uint32(v.data[hdrSize+4+i*intEntry+8:]))
}

func (v nodeView) setCount(n int) {
	binary.LittleEndian.PutUint16(v.data[2:], uint16(n))
}

// childFor returns the child index to descend into for key k.
func (v nodeView) childFor(k uint64) int {
	// Binary search over internal keys: find rightmost key <= k.
	lo, hi := 0, v.count-1
	child := v.child0()
	for lo <= hi {
		mid := (lo + hi) / 2
		if v.intKey(mid) <= k {
			child = v.intChild(mid)
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return child
}

// leafPos finds the position of k in a leaf (found) or its insert position.
func (v nodeView) leafPos(k uint64) (int, bool) {
	lo, hi := 0, v.count-1
	for lo <= hi {
		mid := (lo + hi) / 2
		switch mk := v.leafKey(mid); {
		case mk == k:
			return mid, true
		case mk < k:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return lo, false
}

// descend walks from the root to the leaf for k, returning the node path.
func (t *Tree) descend(k uint64) ([]int, error) {
	path := make([]int, 0, t.height)
	n := t.root
	for {
		path = append(path, n)
		if err := t.readNode(n); err != nil {
			return nil, err
		}
		v := view(t.page[:])
		if v.typ == typeLeaf {
			return path, nil
		}
		n = v.childFor(k)
	}
}

// Get returns the value stored for k.
func (t *Tree) Get(k uint64) (uint64, error) {
	if _, err := t.descend(k); err != nil {
		return 0, err
	}
	v := view(t.page[:]) // descend leaves the leaf in t.page
	if i, ok := v.leafPos(k); ok {
		return v.leafVal(i), nil
	}
	return 0, ErrNotFound
}

// Insert stores (k, val), replacing any existing value (upsert).
func (t *Tree) Insert(k, val uint64) error {
	path, err := t.descend(k)
	if err != nil {
		return err
	}
	leaf := path[len(path)-1]
	v := view(t.page[:])
	if i, ok := v.leafPos(k); ok {
		v.setLeaf(i, k, val)
		return t.writeNode(leaf, t.page[:])
	}
	if v.count < maxLeafKeys {
		t.insertIntoLeaf(v, k, val)
		return t.writeNode(leaf, t.page[:])
	}
	return t.splitLeafAndInsert(path, k, val)
}

func (t *Tree) insertIntoLeaf(v nodeView, k, val uint64) {
	pos, _ := v.leafPos(k)
	copy(v.data[hdrSize+(pos+1)*leafEntry:hdrSize+(v.count+1)*leafEntry],
		v.data[hdrSize+pos*leafEntry:hdrSize+v.count*leafEntry])
	v.setLeaf(pos, k, val)
	v.setCount(v.count + 1)
}

// splitLeafAndInsert splits the full leaf at the end of path, inserts
// (k,val) into the proper half, and pushes the separator upward.
func (t *Tree) splitLeafAndInsert(path []int, k, val uint64) error {
	leaf := path[len(path)-1]
	// Copy the full leaf out of scratch before allocating (alloc writes).
	var old [PageSize]byte
	copy(old[:], t.page[:])
	ov := view(old[:])

	right, err := t.allocNode(typeLeaf)
	if err != nil {
		return err
	}
	mid := ov.count / 2
	sepKey := ov.leafKey(mid)

	var leftBuf, rightBuf [PageSize]byte
	lv, rv := view(leftBuf[:]), view(rightBuf[:])
	binary.LittleEndian.PutUint16(leftBuf[0:], typeLeaf)
	binary.LittleEndian.PutUint16(rightBuf[0:], typeLeaf)
	copy(leftBuf[hdrSize:], old[hdrSize:hdrSize+mid*leafEntry])
	lv = view(leftBuf[:])
	lv.setCount(mid)
	copy(rightBuf[hdrSize:], old[hdrSize+mid*leafEntry:hdrSize+ov.count*leafEntry])
	rv = view(rightBuf[:])
	rv.setCount(ov.count - mid)
	// Sibling links: left -> right -> old sibling.
	binary.LittleEndian.PutUint32(rightBuf[4:], uint32(ov.sibling))
	binary.LittleEndian.PutUint32(leftBuf[4:], uint32(right+1))

	if k < sepKey {
		t.insertIntoLeaf(view(leftBuf[:]), k, val)
	} else {
		t.insertIntoLeaf(view(rightBuf[:]), k, val)
	}
	if err := t.writeNode(leaf, leftBuf[:]); err != nil {
		return err
	}
	if err := t.writeNode(right, rightBuf[:]); err != nil {
		return err
	}
	return t.insertSeparator(path[:len(path)-1], sepKey, leaf, right)
}

// insertSeparator pushes (sepKey -> right) into the parent chain, splitting
// internal nodes as needed; an empty path grows a new root.
func (t *Tree) insertSeparator(path []int, sepKey uint64, left, right int) error {
	if len(path) == 0 {
		root, err := t.allocNode(typeInternal)
		if err != nil {
			return err
		}
		var buf [PageSize]byte
		binary.LittleEndian.PutUint16(buf[0:], typeInternal)
		binary.LittleEndian.PutUint16(buf[2:], 1)
		binary.LittleEndian.PutUint32(buf[hdrSize:], uint32(left))
		binary.LittleEndian.PutUint64(buf[hdrSize+4:], sepKey)
		binary.LittleEndian.PutUint32(buf[hdrSize+4+8:], uint32(right))
		if err := t.writeNode(root, buf[:]); err != nil {
			return err
		}
		t.root = root
		t.height++
		return nil
	}
	parent := path[len(path)-1]
	if err := t.readNode(parent); err != nil {
		return err
	}
	v := view(t.page[:])
	if v.count < maxIntKeys {
		t.insertIntoInternal(v, sepKey, right)
		return t.writeNode(parent, t.page[:])
	}
	// Split the internal node.
	var old [PageSize]byte
	copy(old[:], t.page[:])
	ov := view(old[:])
	newRight, err := t.allocNode(typeInternal)
	if err != nil {
		return err
	}
	mid := ov.count / 2
	midKey := ov.intKey(mid)

	var leftBuf, rightBuf [PageSize]byte
	binary.LittleEndian.PutUint16(leftBuf[0:], typeInternal)
	binary.LittleEndian.PutUint16(rightBuf[0:], typeInternal)
	// Left keeps child0 + keys [0, mid).
	copy(leftBuf[hdrSize:], old[hdrSize:hdrSize+4+mid*intEntry])
	view(leftBuf[:]).setCount(mid)
	// Right's child0 is the child of the promoted key; keys (mid, count).
	binary.LittleEndian.PutUint32(rightBuf[hdrSize:], uint32(ov.intChild(mid)))
	copy(rightBuf[hdrSize+4:], old[hdrSize+4+(mid+1)*intEntry:hdrSize+4+ov.count*intEntry])
	view(rightBuf[:]).setCount(ov.count - mid - 1)

	if sepKey < midKey {
		t.insertIntoInternal(view(leftBuf[:]), sepKey, right)
	} else {
		t.insertIntoInternal(view(rightBuf[:]), sepKey, right)
	}
	if err := t.writeNode(parent, leftBuf[:]); err != nil {
		return err
	}
	if err := t.writeNode(newRight, rightBuf[:]); err != nil {
		return err
	}
	return t.insertSeparator(path[:len(path)-1], midKey, parent, newRight)
}

func (t *Tree) insertIntoInternal(v nodeView, k uint64, child int) {
	// Find insert position: first key > k.
	pos := 0
	for pos < v.count && v.intKey(pos) <= k {
		pos++
	}
	base := hdrSize + 4
	copy(v.data[base+(pos+1)*intEntry:base+(v.count+1)*intEntry],
		v.data[base+pos*intEntry:base+v.count*intEntry])
	binary.LittleEndian.PutUint64(v.data[base+pos*intEntry:], k)
	binary.LittleEndian.PutUint32(v.data[base+pos*intEntry+8:], uint32(child))
	v.setCount(v.count + 1)
}

// Scan visits keys in [from, to) in ascending order, calling fn for each;
// fn returning false stops the scan.
func (t *Tree) Scan(from, to uint64, fn func(k, v uint64) bool) error {
	if _, err := t.descend(from); err != nil {
		return err
	}
	for {
		v := view(t.page[:])
		start, _ := v.leafPos(from)
		for i := start; i < v.count; i++ {
			k := v.leafKey(i)
			if k >= to {
				return nil
			}
			if !fn(k, v.leafVal(i)) {
				return nil
			}
		}
		if v.sibling == 0 {
			return nil
		}
		next := v.sibling - 1
		from = 0
		if err := t.readNode(next); err != nil {
			return err
		}
	}
}

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() int { return t.height }

// Nodes returns allocated node pages.
func (t *Tree) Nodes() int { return t.used }

// Stats returns node reads/writes issued to the hierarchy.
func (t *Tree) Stats() (reads, writes int64) { return t.reads, t.writes }
