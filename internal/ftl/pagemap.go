package ftl

// pageMap is a page-indexed table of n entries that starts out as fill
// everywhere and allocates its backing in chunks of chunkLen entries on the
// first write of a value other than fill into each chunk. The FTL's maps
// therefore cost what a run writes, not what the device could hold, and a
// lookup stays two indexed loads.
type pageMap[T comparable] struct {
	chunks []*[chunkLen]T
	n      int
	fill   T
}

const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
)

func newPageMap[T comparable](n int, fill T) pageMap[T] {
	return pageMap[T]{chunks: make([]*[chunkLen]T, (n+chunkLen-1)/chunkLen), n: n, fill: fill}
}

// len returns the number of entries.
func (m *pageMap[T]) len() int { return m.n }

// get returns entry i.
func (m *pageMap[T]) get(i int) T {
	if c := m.chunks[i>>chunkShift]; c != nil {
		return c[i&(chunkLen-1)]
	}
	return m.fill
}

// set stores v in entry i.
func (m *pageMap[T]) set(i int, v T) {
	c := m.chunks[i>>chunkShift]
	if c == nil {
		if v == m.fill {
			return
		}
		c = m.alloc(i >> chunkShift)
	}
	c[i&(chunkLen-1)] = v
}

// alloc creates chunk k, filled with fill.
func (m *pageMap[T]) alloc(k int) *[chunkLen]T {
	c := new([chunkLen]T)
	for i := range c {
		c[i] = m.fill
	}
	m.chunks[k] = c
	return c
}
