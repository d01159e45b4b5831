//go:build !race

package cow

import "testing"

// TestRecycleRefillAllocs: once a shell has been through one
// fork–write–recycle cycle, the next copy refills its spare and
// allocates nothing, for plain maps and queues alike. Like the other
// allocation budgets, the fence holds the plain build and is off under
// -race.
func TestRecycleRefillAllocs(t *testing.T) {
	var src Map[int, int]
	var qsrc Queues[int, int]
	for i := range 6 {
		src.Set(i, i)
		qsrc.Append(i, i)
	}
	var shell Map[int, int]
	var qshell Queues[int, int]
	cycle := func() {
		f := src
		f.Borrow(&shell)
		f.Set(0, -1)
		f.Recycle()
		shell = f
		q := qsrc
		q.Borrow(&qshell)
		q.PopHead(0)
		q.Recycle()
		qshell = q
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("refilling recycled spares: %.1f allocations, want 0", n)
	}
}

// TestSliceOwnAllocs: writing an owned slice in place allocates
// nothing; only a borrowed one is copied.
func TestSliceOwnAllocs(t *testing.T) {
	var s Slice[int]
	for i := range 4 {
		s.Append(i)
	}
	write := func() {
		s.Own()[1]++
		s.Truncate(3)
		s.Append(9)
	}
	if n := testing.AllocsPerRun(100, write); n != 0 {
		t.Errorf("writing an owned slice: %.1f allocations, want 0", n)
	}
}
