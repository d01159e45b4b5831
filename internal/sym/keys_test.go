package sym

import (
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/nice-go/nice/internal/canon"
)

// The string renderings the explorer's memos were once keyed by: the
// oracles FuzzSymKeyParity holds the structural digests to.

func renderProblem(p Problem) string {
	var b strings.Builder
	for _, d := range p.Domains {
		b.WriteString(d.Var + "=")
		for _, c := range d.Candidates {
			b.WriteString(strconv.FormatUint(c, 10) + ",")
		}
		b.WriteByte('\n')
	}
	b.WriteByte('|')
	for _, c := range p.Constraints {
		b.WriteString(c.String() + "\n")
	}
	return b.String()
}

func renderPath(t *Trace) string {
	var b strings.Builder
	for _, br := range t.branches {
		b.WriteString(strconv.Itoa(int(b01(br.Taken))) + br.Cond.String() + ";")
	}
	return b.String()
}

func renderAssignment(a Assignment) string {
	names := make([]string, 0, len(a))
	for k := range a {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		b.WriteString(k + "=" + strconv.FormatUint(a[k], 10) + ";")
	}
	return b.String()
}

// fuzzTrace records the problem's constraints as a path condition,
// branch i taken iff bit i of dirs is set.
func fuzzTrace(p Problem, dirs uint8) *Trace {
	tr := NewTrace()
	for i, c := range p.Constraints {
		tr.branches = append(tr.branches, Branch{Cond: c, Taken: dirs>>i&1 == 1})
	}
	return tr
}

// fuzzAssignment decodes up to four entries, a name byte and a value
// byte each, over a small universe, so that distinct byte strings often
// give equal maps.
func fuzzAssignment(data []byte) Assignment {
	a := make(Assignment)
	for i := 0; i+1 < len(data) && i < 8; i += 2 {
		a[[]string{"a", "b", "c", "d"}[data[i]%4]] = uint64(data[i+1] % 4)
	}
	return a
}

// FuzzSymKeyParity holds the explorer's four structural keys — an
// expression's mixExpr digest, ProblemKey, a trace's path digest and an
// assignment's order-free key — to the renderings they replaced: two
// values share a digest iff they render alike. The second value is the
// first one's bytes with one byte bumped, so a seed is as likely to
// decode to an equal value as to one differing in a single choice (an
// operator, a constant, a name); an odd bump also turns the second
// path's first branch. The overlay key must equal the key of the
// overlay built.
func FuzzSymKeyParity(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(9))
	f.Add([]byte{2, 7, 1, 0, 2, 5, 3, 1, 1, 2, 0, 4, 2, 9, 1, 1, 3, 3}, uint8(10))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(7))
	f.Add([]byte{255, 254, 253, 0, 0, 0, 128, 64, 32, 16, 8, 4, 2, 1}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, bump uint8) {
		if len(data) > 64 {
			data = data[:64]
		}
		other := slices.Clone(data)
		if len(other) > 0 {
			other[int(bump)%len(other)]++
		}
		same := func(what string, digests, renders bool, x, y string) {
			t.Helper()
			if digests != renders {
				t.Fatalf("%s: digests equal %v, renderings equal %v:\n%q\n%q", what, digests, renders, x, y)
			}
		}
		p, q := fuzzProblem(data), fuzzProblem(other)
		for _, x := range p.Constraints {
			for _, y := range q.Constraints {
				dx, dy := mixExpr(canon.NewMix128(), x).Sum(), mixExpr(canon.NewMix128(), y).Sum()
				same("expr", dx == dy, x.String() == y.String(), x.String(), y.String())
			}
		}
		rp, rq := renderProblem(p), renderProblem(q)
		same("problem", ProblemKey(p) == ProblemKey(q), rp == rq, rp, rq)
		tp, tq := fuzzTrace(p, bump), fuzzTrace(q, bump&^1)
		rp, rq = renderPath(tp), renderPath(tq)
		same("path", tp.path() == tq.path(), rp == rq, rp, rq)
		ap, aq := fuzzAssignment(data), fuzzAssignment(other)
		rp, rq = renderAssignment(ap), renderAssignment(aq)
		same("input", ap.key() == aq.key(), rp == rq, rp, rq)

		out := ap.Clone()
		maps.Copy(out, aq)
		if ap.overlaidKey(ap.key(), aq) != out.key() {
			t.Fatalf("overlaidKey(%s, %s) differs from the key of %s", renderAssignment(ap), rq, renderAssignment(out))
		}
	})
}
