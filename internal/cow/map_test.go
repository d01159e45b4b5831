package cow

import (
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// forkMap and forkQueues return what a holder's Fork or Clone makes of
// src: a struct copy that borrows the map.
func forkMap(src *Map[string, int]) *Map[string, int] {
	c := *src
	c.Borrow(nil)
	return &c
}

func forkQueues(src *Queues[string, int]) *Queues[string, int] {
	c := *src
	c.Borrow(nil)
	return &c
}

// TestMapForkIsolation: no write through a fork changes its source.
func TestMapForkIsolation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(*Map[string, int])
		want  map[string]int
	}{
		{"set-new", func(m *Map[string, int]) { m.Set("c", 3) }, map[string]int{"a": 1, "b": 2, "c": 3}},
		{"set-existing", func(m *Map[string, int]) { m.Set("a", 10) }, map[string]int{"a": 10, "b": 2}},
		{"delete", func(m *Map[string, int]) { m.Delete("a") }, map[string]int{"b": 2}},
		{"delete-absent", func(m *Map[string, int]) { m.Delete("z") }, map[string]int{"a": 1, "b": 2}},
		{"set-then-delete", func(m *Map[string, int]) { m.Set("c", 3); m.Delete("b") }, map[string]int{"a": 1, "c": 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var src Map[string, int]
			src.Set("a", 1)
			src.Set("b", 2)
			before := maps.Clone(src.Read())
			f := forkMap(&src)
			tc.write(f)
			if got := src.Read(); !maps.Equal(got, before) {
				t.Errorf("source = %v after the fork's write, want %v", got, before)
			}
			if got := maps.Collect(f.All()); !maps.Equal(got, tc.want) {
				t.Errorf("fork = %v, want %v", got, tc.want)
			}
			if f.Len() != len(tc.want) {
				t.Errorf("fork Len = %d, want %d", f.Len(), len(tc.want))
			}
		})
	}
}

// TestQueuesForkIsolation: no write through a fork changes its source's
// queues or writes into their backing arrays, including the slots past
// a queue's length that an in-place append would take.
func TestQueuesForkIsolation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(*Queues[string, int])
		want  map[string][]int
	}{
		{"append-past-clamp", func(q *Queues[string, int]) { q.Append("a", 5) }, map[string][]int{"a": {1, 2, 5}, "b": {3}}},
		{"append-new-key", func(q *Queues[string, int]) { q.Append("c", 6) }, map[string][]int{"a": {1, 2}, "b": {3}, "c": {6}}},
		{"pop-then-append", func(q *Queues[string, int]) {
			if v, ok := q.PopHead("a"); !ok || v != 1 {
				panic("PopHead did not return the head")
			}
			q.Append("a", 7)
		}, map[string][]int{"a": {2, 7}, "b": {3}}},
		{"pop-drain", func(q *Queues[string, int]) { q.PopHead("b") }, map[string][]int{"a": {1, 2}}},
		{"set", func(q *Queues[string, int]) { q.Set("b", []int{8, 9}) }, map[string][]int{"a": {1, 2}, "b": {8, 9}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Queue a has spare capacity holding a sentinel an in-place
			// append would overwrite.
			backing := []int{1, 2, -1, -1}
			var src Queues[string, int]
			src.Set("a", backing[:2])
			src.Append("b", 3)
			f := forkQueues(&src)
			tc.write(f)
			if got := src.Read(); len(got) != 2 || !slices.Equal(got["a"], []int{1, 2}) || !slices.Equal(got["b"], []int{3}) {
				t.Errorf("source = %v after the fork's write", got)
			}
			if !slices.Equal(backing, []int{1, 2, -1, -1}) {
				t.Errorf("source backing = %v, want [1 2 -1 -1]", backing)
			}
			got := maps.Collect(f.All())
			if !maps.EqualFunc(got, tc.want, slices.Equal) {
				t.Errorf("fork = %v, want %v", got, tc.want)
			}
		})
	}
}

// forkSlice returns what a holder's Fork or Clone makes of src.
func forkSlice(src *Slice[int]) *Slice[int] {
	c := *src
	c.Borrow()
	return &c
}

// TestSliceForkIsolation: no write through a fork changes its source's
// elements or writes into its backing array, including the slots past
// its length that an in-place append would take.
func TestSliceForkIsolation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(*Slice[int])
		want  []int
	}{
		{"append-past-clamp", func(s *Slice[int]) { s.Append(5) }, []int{1, 2, 3, 5}},
		{"own-write", func(s *Slice[int]) { s.Own()[0] = 10 }, []int{10, 2, 3}},
		{"own-compact", func(s *Slice[int]) {
			own := s.Own()
			own[0] = own[2]
			s.Truncate(2)
			s.Append(7)
		}, []int{3, 2, 7}},
		{"truncate-append", func(s *Slice[int]) { s.Truncate(1); s.Append(8) }, []int{1, 8}},
		{"delete-head", func(s *Slice[int]) { s.Delete(0); s.Own()[0] = 9 }, []int{9, 3}},
		{"delete-last", func(s *Slice[int]) { s.Delete(2); s.Own()[0] = 9; s.Append(6) }, []int{9, 2, 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The source has spare capacity holding a sentinel an
			// in-place append would overwrite.
			backing := []int{1, 2, 3, -1}
			src := Slice[int]{s: backing[:3]}
			f := forkSlice(&src)
			tc.write(f)
			if !slices.Equal(backing, []int{1, 2, 3, -1}) || !slices.Equal(src.View(), []int{1, 2, 3}) {
				t.Errorf("source = %v, backing %v after the fork's write", src.View(), backing)
			}
			if !slices.Equal(f.View(), tc.want) || f.Len() != len(tc.want) {
				t.Errorf("fork = %v, want %v", f.View(), tc.want)
			}
		})
	}
}

// TestSliceOwn: Own copies a borrowed backing once, with one slot of
// headroom, and hands an owned slice back as it is.
func TestSliceOwn(t *testing.T) {
	var src Slice[int]
	for i := range 3 {
		src.Append(i)
	}
	f := forkSlice(&src)
	own := f.Own()
	if &own[0] == &src.View()[0] || cap(own) != len(own)+1 {
		t.Errorf("Own of a borrowed slice: shares the source %t, cap %d for len %d",
			&own[0] == &src.View()[0], cap(own), len(own))
	}
	if again := f.Own(); &again[0] != &own[0] {
		t.Error("Own of an owned slice copied it")
	}
	if got := src.Own(); &got[0] != &src.View()[0] {
		t.Error("Own of the source, which was never borrowed, copied it")
	}
}

// TestPopHeadDrainsKey: popping a queue's last element removes its key,
// and popping an empty or missing queue reports false.
func TestPopHeadDrainsKey(t *testing.T) {
	var q Queues[string, int]
	q.Append("a", 1)
	q.Append("a", 2)
	for _, want := range []int{1, 2} {
		if v, ok := q.PopHead("a"); !ok || v != want {
			t.Fatalf("PopHead = %d, %t, want %d, true", v, ok, want)
		}
	}
	if _, ok := q.Get("a"); ok || q.Len() != 0 {
		t.Errorf("drained key still present (Len %d)", q.Len())
	}
	if _, ok := q.PopHead("a"); ok {
		t.Error("PopHead of a drained queue reported an element")
	}
	f := forkQueues(&q)
	if _, ok := f.PopHead("missing"); ok || f.Len() != 0 {
		t.Error("PopHead of a missing queue reported an element")
	}
}

// TestRecycle: Recycle leaves the map empty; the next copy refills the
// spare, which holds no stale entry; a borrowed map is never emptied,
// since its source still reads it.
func TestRecycle(t *testing.T) {
	var src Map[string, int]
	src.Set("a", 1)
	src.Set("b", 2)

	var shell Map[string, int]
	shell.Set("stale", 9)
	spare := shell.Read()
	shell.Recycle()
	if shell.Len() != 0 || len(spare) != 0 {
		t.Fatalf("recycled map holds %d entries, its spare %d", shell.Len(), len(spare))
	}
	f := src
	f.Borrow(&shell)
	f.Set("c", 3)
	if got, want := f.Read(), map[string]int{"a": 1, "b": 2, "c": 3}; !maps.Equal(got, want) {
		t.Errorf("copy into the spare = %v, want %v", got, want)
	}
	if len(spare) != 3 {
		t.Error("the copy did not refill the spare")
	}

	borrowed := forkMap(&src)
	borrowed.Recycle()
	if got := src.Read(); len(got) != 2 {
		t.Errorf("recycling a borrowing fork emptied its source: %v", got)
	}
	borrowed.Set("d", 4)
	if _, ok := src.Get("d"); ok {
		t.Error("a borrowed map became the recycled fork's spare")
	}

	var qsrc, qshell Queues[string, int]
	qsrc.Append("a", 1)
	qshell.Append("stale", 9)
	qshell.Recycle()
	qf := qsrc
	qf.Borrow(&qshell)
	qf.Append("a", 2)
	if got := qf.Read(); len(got) != 1 || !slices.Equal(got["a"], []int{1, 2}) {
		t.Errorf("queue copy into the spare = %v", got)
	}
	qb := forkQueues(&qsrc)
	qb.Recycle()
	if qsrc.Len() != 1 {
		t.Error("recycling a borrowing queue fork emptied its source")
	}
}

// prop is a property-shaped holder: two maps, a Clone that borrows both.
type prop struct {
	seen, late Map[int, bool]
}

func (p *prop) Clone() *prop {
	c := *p
	c.seen.Borrow(nil)
	c.late.Borrow(nil)
	return &c
}

// TestBorrowInClone: a Clone's Borrow writes only the clone, so clones
// written on other goroutines never race with readers of the receiver
// (-race checks it), and a clone that writes one of two maps copies
// only that one.
func TestBorrowInClone(t *testing.T) {
	p := &prop{}
	for i := range 8 {
		p.seen.Set(i, true)
		p.late.Set(i, true)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := p.Clone()
			c.seen.Set(100+w, true)
			c.seen.Delete(0)
			if c.late.Read() == nil || len(c.late.Read()) != 8 {
				t.Error("clone lost the borrowed map")
			}
		}()
		for k := range p.seen.All() {
			_, _ = p.late.Get(k)
		}
	}
	wg.Wait()
	if p.seen.Len() != 8 || p.late.Len() != 8 || p.seen.borrowed || p.late.borrowed {
		t.Errorf("receiver written: seen %d, late %d entries", p.seen.Len(), p.late.Len())
	}
	c := p.Clone()
	late := c.late.Read()
	c.seen.Set(100, true)
	if !c.late.borrowed || !sameMap(c.late.Read(), late) {
		t.Error("writing one map of a clone copied the other")
	}
	if c.seen.borrowed || sameMap(c.seen.Read(), p.seen.Read()) {
		t.Error("the written map is still the receiver's")
	}
}

// sameMap reports whether a and b are one map.
func sameMap(a, b map[int]bool) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}
