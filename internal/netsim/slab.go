package netsim

// slab hands out the elements of one array sized for a whole topology, so
// a builder pays one allocation per element type instead of one per host,
// switch, link, queue or port list. Elements are built in place and keep
// their slab alive while any of them is reachable, which for a topology is
// the run's lifetime. Taking more than the slab was made for panics: the
// builders size every slab from the topology's exact element counts.
type slab[T any] []T

// next hands out the next n elements as a slice of length and capacity n,
// so appending past them can never overwrite a neighbour.
func (s *slab[T]) next(n int) []T {
	i := len(*s)
	*s = (*s)[:i+n]
	return (*s)[i : i+n : i+n]
}

// one hands out the next element.
func (s *slab[T]) one() *T { return &s.next(1)[0] }
