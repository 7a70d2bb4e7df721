package tcp

import "sort"

// rangeSet maintains a sorted set of disjoint half-open byte ranges. The
// receiver uses it to track out-of-order data above rcvNxt and to generate
// SACK blocks. Operations use binary search so large loss episodes (many
// disjoint ranges) stay cheap. The first backing array is inline, so a set
// that never holds more than rangeSetFirst ranges allocates none; a
// non-empty set must not be copied.
type rangeSet struct {
	ranges []byteRange // sorted by Start, disjoint, non-adjacent
	first  [rangeSetFirst]byteRange
}

// rangeSetFirst is the capacity of a rangeSet's inline first array.
const rangeSetFirst = 4

type byteRange struct {
	Start, End uint64
}

// add inserts [start, end), merging overlapping and adjacent ranges, and
// returns the merged range now covering start.
func (s *rangeSet) add(start, end uint64) byteRange {
	if start >= end {
		return byteRange{start, start}
	}
	// First range whose End >= start (candidate for merging on the left).
	i := sort.Search(len(s.ranges), func(k int) bool { return s.ranges[k].End >= start })
	j := i
	for j < len(s.ranges) && s.ranges[j].Start <= end {
		if s.ranges[j].Start < start {
			start = s.ranges[j].Start
		}
		if s.ranges[j].End > end {
			end = s.ranges[j].End
		}
		j++
	}
	merged := byteRange{start, end}
	if i == j {
		// No overlap: insert at i.
		if s.ranges == nil {
			s.ranges = s.first[:0]
		}
		s.ranges = append(s.ranges, byteRange{}) // grows only during loss episodes, bounded by the reordering extent
		copy(s.ranges[i+1:], s.ranges[i:])
		s.ranges[i] = merged
	} else {
		s.ranges[i] = merged
		s.ranges = append(s.ranges[:i+1], s.ranges[j:]...)
	}
	return merged
}

// popBelow removes all data below seq and returns the new contiguous limit:
// if a range begins at or below seq, its end becomes the new limit
// (cumulative delivery advanced over buffered data).
func (s *rangeSet) popBelow(seq uint64) uint64 {
	limit := seq
	n := 0
	for n < len(s.ranges) && s.ranges[n].Start <= limit {
		if s.ranges[n].End > limit {
			limit = s.ranges[n].End
		}
		n++
	}
	if n > 0 {
		// Compact the survivors to the front: reslicing [n:] would shed
		// the backing array's head, so reordering on bonded links would
		// reallocate it every few segments.
		s.ranges = s.ranges[:copy(s.ranges, s.ranges[n:])]
	}
	return limit
}

// find returns the range containing seq, if any.
func (s *rangeSet) find(seq uint64) (byteRange, bool) {
	i := sort.Search(len(s.ranges), func(k int) bool { return s.ranges[k].End > seq })
	if i < len(s.ranges) && s.ranges[i].Start <= seq {
		return s.ranges[i], true
	}
	return byteRange{}, false
}

// contains reports whether the byte at seq is covered.
func (s *rangeSet) contains(seq uint64) bool {
	_, ok := s.find(seq)
	return ok
}

// blocks returns up to max ranges, lowest first.
func (s *rangeSet) blocks(max int) []byteRange {
	if len(s.ranges) <= max {
		return s.ranges
	}
	return s.ranges[:max]
}

// reset empties the set, keeping the backing array for reuse.
func (s *rangeSet) reset() { s.ranges = s.ranges[:0] }

// len reports the number of disjoint ranges.
func (s *rangeSet) len() int { return len(s.ranges) }

// bytes reports the total bytes covered.
func (s *rangeSet) bytes() uint64 {
	var n uint64
	for _, r := range s.ranges {
		n += r.End - r.Start
	}
	return n
}
