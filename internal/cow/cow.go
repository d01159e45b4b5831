// Package cow implements the epoch-based copy-on-write ownership
// protocol that makes forking a modelled System cheap. The model
// checker spends most of its time forking states — one fork per enabled
// transition but a state's last — yet a typical transition touches one
// switch and one queue, so deep-copying every component per fork is
// almost entirely wasted work. Under this protocol a fork is
// O(#components) pointer copies and the deep copy of a component
// happens lazily, exactly when (and only if) it is first mutated.
//
// # Protocol
//
// Ownership has a single root authority: the System's current epoch, a
// process-unique number drawn from a global atomic counter. Every
// directly-held mutable component (switch, host, controller runtime,
// property slot) carries a Tag recording the epoch it was acquired at:
//
//   - Tag == current system epoch  ⇒ the component is exclusively
//     reachable from this System and may be mutated in place.
//   - Tag != current system epoch ⇒ the component may be shared with
//     forks; the System must replace it with a copy (re-tagged to the
//     current epoch) before mutating — the ensureOwned step.
//
// Forking retires ownership wholesale by giving BOTH sides fresh
// epochs: no component tag can match either side's new epoch, so the
// first write on either side copies. A retired component is frozen: it
// is not mutated in place while any fork that may share it is alive.
// The reclaim rule is the one way back: a System may return to its
// pre-fork epoch only after every fork made from it, and every fork of
// those forks, has been released. The sequential DFS and the DPOR DFS
// always meet it: each returns a lent fork only once the fork's whole
// subtree is done. A parallel worker meets it when it queued no state
// for another goroutine while the fork's subtree ran (internal/search
// counts those exports per worker). Crucially, forking writes
// nothing into shared components (only the two System epochs change), so
// a fork never races with another goroutine reading components it shares.
//
// Nested state (a switch's flow table, buffer and channel maps, a
// runtime's application and message queues, the maps and slices apps
// and properties keep) is borrowed instead of epoch-tagged: a component
// copy is created with its internals marked borrowed, and each internal
// mutator copies-then-clears before the first write. Map, Queues
// (map.go) and Slice (slice.go) are the forms of that rule: Borrow on
// the fork; for maps a copy before the first Set, Delete, Append or
// PopHead, queue slices clamped so appends reallocate, and Recycle's
// spare; for slices a clamp, so appends reallocate, and a copy in Own
// before the first in-place write. The borrowed marks live only on the
// exclusive copy — the frozen source is never written — which keeps the
// protocol race-free under the parallel engines without any atomics on
// the hot path.
//
// # Invariants
//
//  1. Exclusivity: Tag.OwnedBy(sys.epoch) implies the component is
//     reachable from no other System. Property slots carry tags too: a
//     property is owned exactly when its slot's tag is the epoch.
//  2. Frozen sources: once a System forks, every component it held is
//     immutable through the old references while any fork may share
//     it, and for good unless the System reclaims its pre-fork epoch.
//  3. Warm caches: System forks warm every component's memoized state
//     hash first, so shared (frozen) components are only ever read —
//     including their hash caches — never filled concurrently.
//  4. Recycling: a component goes back to its pool only at Reclaim —
//     which every depth-first loop, the DPOR DFS included, calls on a
//     lent fork whose subtree is dead — only if the reclaimed fork
//     owned it at the fork's epoch (by 1 and the reclaim rule, the fork
//     made it and no live System reaches it), and only as a struct
//     shell, its channel maps and the fork's props backing — never a
//     slice backing, whose elements events, traces and properties keep.
//     The shell is zeroed and its maps emptied when it is recycled
//     (Map.Recycle and Queues.Recycle, which empty only a map the shell
//     owns and keep it as the spare), so a stale reader sees empty
//     channels. A shell keeps its transition scratch as it keeps its
//     maps: the System struct its switch result, a controller runtime
//     its dispatch scratch (handler context, outbox and packet).
//     Scratch is refilled by every transition and never handed out
//     (consumers copy its elements), so a fork takes its shell's own
//     scratch, never its source's, and Release keeps the System
//     struct's. Release recycles nothing else: its caller does not know
//     that the fork's subtree is dead.
package cow

import "sync/atomic"

var epochCounter atomic.Uint64

// NextEpoch returns a fresh, process-unique ownership epoch. Epoch 0 is
// never returned, so a zero Tag is always unowned.
func NextEpoch() uint64 { return epochCounter.Add(1) }

// Tag is the shared/owned marker embedded by every copy-on-write
// component. The zero value is unowned by every epoch.
type Tag struct{ owner uint64 }

// OwnedBy reports whether the component is exclusively owned at epoch e.
func (t *Tag) OwnedBy(e uint64) bool { return t.owner == e && e != 0 }

// SetOwner marks the component exclusively owned at epoch e. Callers
// must hold the only mutable reference (a freshly made copy, or a
// component being constructed).
func (t *Tag) SetOwner(e uint64) { t.owner = e }
