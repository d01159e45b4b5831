// Package cow implements the epoch-based copy-on-write ownership
// protocol that makes forking a modelled System cheap. The model
// checker spends most of its time forking states — one fork per enabled
// transition — yet a typical transition touches one switch and one
// queue, so deep-copying every component per fork is almost entirely
// wasted work. Under this protocol a fork is O(#components) pointer
// copies and the deep copy of a component happens lazily, exactly when
// (and only if) that component is first mutated.
//
// # Protocol
//
// Ownership has a single root authority: the System's current epoch, a
// process-unique number drawn from a global atomic counter. Every
// directly-held mutable component (switch, host, controller runtime,
// property group) carries a Tag recording the epoch it was acquired at:
//
//   - Tag == current system epoch  ⇒ the component is exclusively
//     reachable from this System and may be mutated in place.
//   - Tag != current system epoch ⇒ the component may be shared with
//     forks; the System must replace it with a copy (re-tagged to the
//     current epoch) before mutating — the ensureOwned step.
//
// Forking retires ownership wholesale by giving BOTH sides fresh
// epochs: no component tag can match either side's new epoch, so the
// first write on either side copies. Because epochs are never reused, a
// retired component can never be mutated in place again — it is frozen.
// Crucially, forking writes nothing into shared components (only the
// two System epochs change), so a fork never races with another
// goroutine reading components it shares.
//
// Nested state (a switch's flow table and channel maps, a runtime's
// application and message queues) uses borrowed flags instead of
// epochs: a component copy is created with its internals marked
// borrowed, and each internal mutator copies-then-clears before the
// first write. The flags live only on the exclusive copy — the frozen
// source is never written — which keeps the protocol race-free under
// the parallel engines without any atomics on the hot path.
//
// # Invariants
//
//  1. Exclusivity: Tag.OwnedBy(sys.epoch) implies the component is
//     reachable from no other System.
//  2. Frozen sources: once a System forks, every component it held is
//     permanently immutable through the old references.
//  3. Warm caches: System forks warm every component's memoized state
//     hash first, so shared (frozen) components are only ever read —
//     including their hash caches — never filled concurrently.
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
