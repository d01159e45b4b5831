package cow

// Slice is Map's form for slices: a holder's fork struct-copies the
// Slice and calls Borrow, which clamps it to len == cap so an append on
// either side reallocates, and the fork's first in-place write goes
// through Own, which copies the frozen source's backing first. A
// borrowed slice stays clamped until it is owned. Reads go through View
// and Len. The zero Slice is an empty owned slice.
type Slice[E any] struct {
	s []E
	// borrowed: s's backing belongs to a frozen source and is never
	// written here.
	borrowed bool
}

// Borrow marks s, just struct-copied from a frozen source, as shared.
func (s *Slice[E]) Borrow() { s.s, s.borrowed = s.s[:len(s.s):len(s.s)], true }

// View returns the elements. It must not be written.
func (s *Slice[E]) View() []E { return s.s }

// Len returns the number of elements.
func (s *Slice[E]) Len() int { return len(s.s) }

// Own returns the elements for an in-place write, first copying a
// borrowed backing with one slot of headroom for an append.
func (s *Slice[E]) Own() []E {
	if s.borrowed {
		c := make([]E, len(s.s), len(s.s)+1)
		copy(c, s.s)
		s.s, s.borrowed = c, false
	}
	return s.s
}

// Append adds e at the end. A borrowed slice is clamped, so append
// moves it to a fresh backing, grown as append grows it.
func (s *Slice[E]) Append(e E) { s.s, s.borrowed = append(s.s, e), false }

// Truncate keeps the first n elements.
func (s *Slice[E]) Truncate(n int) { s.s = s.Own()[:n] }

// Delete removes element i into a fresh backing, never shifting
// elements in place, so a View taken earlier keeps its contents.
// Removing the last element keeps a clamped prefix of the backing,
// still borrowed if it was.
func (s *Slice[E]) Delete(i int) {
	if i < len(s.s)-1 {
		s.borrowed = false
	}
	s.s = append(s.s[:i:i], s.s[i+1:]...)
}
