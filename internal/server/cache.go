// Package server models the data servers whose memory traffic the
// paper studies: a storage server (Figure 1's read/write paths over a
// buffer cache, disk array and SAN) and a database server (bufferpool
// plus processor accesses). Running these models produces the OLTP-St
// and OLTP-Db style traces of Table 2, including the client-perceived
// response times that CP-Limit is defined against.
package server

import (
	"fmt"
	"math/bits"

	"dmamem/internal/memsys"
)

// ObjectID names a logical data object (a run of consecutive logical
// blocks requested as a unit: a DB page extent, a file region, ...).
type ObjectID int32

// BufferCache is an object-granularity buffer cache over a contiguous
// region of physical page frames. Objects occupy contiguous frame runs
// (DMA transfers in the traces are contiguous), allocated first-fit and
// reclaimed by evicting least-recently-used objects until a large
// enough run opens up.
type BufferCache struct {
	frames int // total frames managed

	// Free-run bookkeeping: bit f%64 of used[f/64] is set while frame
	// f holds an object. Bits past the last frame stay clear.
	used []uint64

	// Resident objects, LRU-threaded.
	entries map[ObjectID]*cacheEntry
	head    *cacheEntry // most recently used
	tail    *cacheEntry // least recently used

	// hint is where the next free-run scan starts; it makes sequential
	// fills O(1) amortized instead of quadratic.
	hint int

	// Statistics.
	Hits, Misses int64
	Evictions    int64
}

type cacheEntry struct {
	id         ObjectID
	start      memsys.PageID
	pages      int
	prev, next *cacheEntry
}

// NewBufferCache manages the frame range [0, frames).
func NewBufferCache(frames int) (*BufferCache, error) {
	if frames <= 0 {
		return nil, fmt.Errorf("server: cache of %d frames", frames)
	}
	return &BufferCache{
		frames:  frames,
		used:    make([]uint64, (frames+63)/64),
		entries: make(map[ObjectID]*cacheEntry),
	}, nil
}

// Len returns the number of resident objects.
func (c *BufferCache) Len() int { return len(c.entries) }

// Lookup checks residency. On a hit the object becomes most recently
// used and its frame run is returned.
func (c *BufferCache) Lookup(id ObjectID) (start memsys.PageID, pages int, ok bool) {
	e, ok := c.entries[id]
	if !ok {
		c.Misses++
		return 0, 0, false
	}
	c.Hits++
	c.touch(e)
	return e.start, e.pages, true
}

// Insert caches an object of the given size, evicting LRU objects as
// needed, and returns the frame run it now occupies. Inserting an
// object larger than the whole cache or one that is already resident
// is a caller bug and panics.
func (c *BufferCache) Insert(id ObjectID, pages int) memsys.PageID {
	if pages <= 0 || pages > c.frames {
		panic(fmt.Sprintf("server: Insert(%d, %d pages) in %d-frame cache", id, pages, c.frames))
	}
	if _, ok := c.entries[id]; ok {
		panic(fmt.Sprintf("server: Insert of resident object %d", id))
	}
	start, ok := c.findRun(pages)
	for !ok {
		if c.tail == nil {
			panic("server: no run and nothing to evict")
		}
		c.evict(c.tail)
		start, ok = c.findRun(pages)
	}
	e := &cacheEntry{id: id, start: start, pages: pages}
	c.mark(e, true)
	c.entries[id] = e
	c.pushFront(e)
	return start
}

// Remove drops an object if resident; it reports whether it was.
func (c *BufferCache) Remove(id ObjectID) bool {
	e, ok := c.entries[id]
	if !ok {
		return false
	}
	c.evict(e)
	c.Evictions-- // explicit removal is not an eviction
	return true
}

// HitRatio returns hits/(hits+misses), or 0 before any lookup.
func (c *BufferCache) HitRatio() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// findRun locates a run of n free frames, scanning circularly from the
// last allocation point (next fit). On success the hint advances past
// the run.
func (c *BufferCache) findRun(n int) (memsys.PageID, bool) {
	if c.hint >= c.frames {
		c.hint = 0
	}
	// Two passes: hint..end, then 0..hint+n (runs do not wrap).
	for pass := 0; pass < 2; pass++ {
		start, end := c.hint, c.frames
		if pass == 1 {
			start, end = 0, c.hint+n-1
			if end > c.frames {
				end = c.frames
			}
		}
		// Jump from each free frame to the next used one: the first
		// free stretch of n frames is the run.
		f := c.nextFrame(start, end, false)
		for f+n <= end {
			u := c.nextFrame(f, f+n, true)
			if u == f+n {
				c.hint = f + n
				return memsys.PageID(f), true
			}
			f = c.nextFrame(u, end, false)
		}
	}
	return 0, false
}

// nextFrame returns the first frame in [f, end) that is used (or free,
// when used is false), or end when there is none. It tests a word of
// 64 frames per step, so a scan of a full cache stays cheap.
func (c *BufferCache) nextFrame(f, end int, used bool) int {
	for f < end {
		w := c.used[f>>6]
		if !used {
			w = ^w
		}
		if w >>= uint(f & 63); w != 0 {
			f += bits.TrailingZeros64(w)
			break
		}
		f = (f | 63) + 1
	}
	return min(f, end)
}

// mark sets (used) or clears the frames of e's run.
func (c *BufferCache) mark(e *cacheEntry, used bool) {
	for f := int(e.start); f < int(e.start)+e.pages; f++ {
		if used {
			c.used[f>>6] |= 1 << uint(f&63)
		} else {
			c.used[f>>6] &^= 1 << uint(f&63)
		}
	}
}

func (c *BufferCache) evict(e *cacheEntry) {
	c.mark(e, false)
	c.unlink(e)
	delete(c.entries, e.id)
	c.Evictions++
}

func (c *BufferCache) touch(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *BufferCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *BufferCache) pushFront(e *cacheEntry) {
	e.next = c.head
	e.prev = nil
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// checkInvariants verifies internal consistency; tests call it.
func (c *BufferCache) checkInvariants() error {
	owner := make(map[int]ObjectID)
	listed, pages := 0, 0
	for e := c.head; e != nil; e = e.next {
		if c.entries[e.id] != e {
			return fmt.Errorf("object %d in LRU list is not the resident entry", e.id)
		}
		listed++
		pages += e.pages
		for f := int(e.start); f < int(e.start)+e.pages; f++ {
			if prev, ok := owner[f]; ok {
				return fmt.Errorf("frame %d held by objects %d and %d", f, prev, e.id)
			}
			owner[f] = e.id
			if c.nextFrame(f, f+1, true) != f {
				return fmt.Errorf("frame %d of object %d marked free", f, e.id)
			}
		}
		if e.next == nil && c.tail != e {
			return fmt.Errorf("tail pointer wrong")
		}
	}
	if listed != len(c.entries) {
		return fmt.Errorf("LRU list has %d entries, map has %d", listed, len(c.entries))
	}
	used := 0
	for _, w := range c.used {
		used += bits.OnesCount64(w)
	}
	if used != pages {
		return fmt.Errorf("%d frames marked used, resident objects hold %d", used, pages)
	}
	return nil
}
