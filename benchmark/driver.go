package main

import (
	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/core"
)

// driver is the benchmark-owned depth-first search: it mirrors
// core.Checker's dfs step for step, but through exported System
// methods only, so every call into the core layer can be wrapped in a
// span from this file. It visits exactly the states and transitions
// nice.Run visits (driver_test.go proves the counts equal), which is
// what lets its per-call times stand for the untraced search's.
type driver struct {
	tr   *tracer
	op   string
	root int // the kept span every folded call hangs under

	cfg  *core.Config
	seen map[canon.Digest]struct{}

	fingerprint, enabled, clone, release *aggregate
	checkEvents, checkQuiescence, probe  *aggregate
	apply                                *aggregate
	applyKind                            map[core.TransitionKind]*aggregate

	counts     driverCounts
	violations []core.Violation
	seenViol   map[string]bool
	stopped    bool

	trace     []core.Transition
	transBufs [][]core.Transition
	eventBuf  []core.Event
}

// driverCounts are the search counters the driver keeps itself.
type driverCounts struct {
	Transitions, UniqueStates, Revisits, Truncated int64
	// EnabledSum adds the enabled-set sizes of the expanded states.
	EnabledSum int64
}

// applyKindName maps the transition kinds the workloads execute to the
// span-name suffix their apply time is also filed under.
var applyKindName = map[core.TransitionKind]string{
	core.THostSend:      "send",
	core.THostReply:     "send_reply",
	core.TSwitchProcess: "process_pkt",
	core.TSwitchOF:      "process_of",
	core.TCtrlDispatch:  "ctrl_dispatch",
	core.THostDiscover:  "discover_packets",
	core.TCtrlEnv:       "env",
}

func newDriver(tr *tracer, cfg *core.Config, op string) *driver {
	d := &driver{
		tr: tr, op: op, cfg: cfg,
		seen:            make(map[canon.Digest]struct{}),
		seenViol:        make(map[string]bool),
		fingerprint:     tr.agg("core.fingerprint"),
		enabled:         tr.agg("core.enabled"),
		clone:           tr.agg("core.clone"),
		release:         tr.agg("core.release"),
		checkEvents:     tr.agg("core.check_events"),
		checkQuiescence: tr.agg("core.check_quiescence"),
		probe:           tr.agg("core.seen_probe"),
		apply:           tr.agg("core.apply"),
		applyKind:       make(map[core.TransitionKind]*aggregate),
	}
	for k, name := range applyKindName {
		d.applyKind[k] = tr.agg("core.apply." + name)
	}
	return d
}

// run searches cfg's whole state space (or to the first violation when
// the config says so) from a fresh initial state with cold caches,
// under one kept "driver.search" span.
func (d *driver) run(parent int) {
	d.root = d.tr.begin("driver.search", d.op, parent)
	id := d.tr.begin("core.new_system", d.op, d.root)
	sys := core.NewSystem(d.cfg)
	d.tr.end(id)
	d.dfs(sys)
	d.tr.end(d.root)
}

func (d *driver) dfs(sys *core.System) {
	if d.stopped {
		return
	}
	tr := d.tr
	t0 := tr.now()
	h := sys.Fingerprint()
	t1 := tr.now()
	_, dup := d.seen[h]
	if !dup {
		d.seen[h] = struct{}{}
	}
	t2 := tr.now()
	tr.fold(d.fingerprint, "core.fingerprint", d.op, d.root, t0, t1)
	tr.fold(d.probe, "core.seen_probe", d.op, d.root, t1, t2)
	if dup {
		d.counts.Revisits++
		return
	}
	d.counts.UniqueStates++

	depth := len(d.trace)
	for len(d.transBufs) <= depth {
		d.transBufs = append(d.transBufs, nil)
	}
	t0 = tr.now()
	enabled := sys.EnabledInto(d.transBufs[depth])
	tr.fold(d.enabled, "core.enabled", d.op, d.root, t0, tr.now())
	d.transBufs[depth] = enabled[:0]
	if len(enabled) == 0 {
		t0 = tr.now()
		fails := sys.CheckQuiescence()
		tr.fold(d.checkQuiescence, "core.check_quiescence", d.op, d.root, t0, tr.now())
		for _, f := range fails {
			d.record(core.Violation{Property: f.Property, Err: f.Err,
				Trace: append([]core.Transition(nil), d.trace...), Quiescence: true})
			if d.stopped {
				return
			}
		}
		return
	}
	if depth >= d.cfg.DepthBound() {
		d.counts.Truncated++
		return
	}
	d.counts.EnabledSum += int64(len(enabled))

	for _, t := range enabled {
		if d.stopped {
			return
		}
		t0 = tr.now()
		child := sys.Clone()
		t1 = tr.now()
		events := child.ApplyInto(t, d.eventBuf)
		t2 = tr.now()
		tr.fold(d.clone, "core.clone", d.op, d.root, t0, t1)
		// The apply span is filed once under core.apply and once under
		// its kind; only the first counts toward the parent's covered
		// time, so coverage is not doubled.
		tr.fold(d.apply, "core.apply", d.op, d.root, t1, t2)
		if a := d.applyKind[t.Kind]; a != nil {
			a.add(t2-t1, t2-t1)
		}
		d.eventBuf = events
		d.counts.Transitions++
		d.trace = append(d.trace, t)

		t0 = tr.now()
		fails := child.CheckEvents(events)
		tr.fold(d.checkEvents, "core.check_events", d.op, d.root, t0, tr.now())
		for _, f := range fails {
			d.record(core.Violation{Property: f.Property, Err: f.Err,
				Trace: append([]core.Transition(nil), d.trace...)})
		}
		if len(fails) == 0 {
			// Like the checker, do not explore past a violating state.
			d.dfs(child)
		}
		t0 = tr.now()
		child.Release()
		tr.fold(d.release, "core.release", d.op, d.root, t0, tr.now())
		d.trace = d.trace[:len(d.trace)-1]
	}
}

func (d *driver) record(v core.Violation) {
	key := v.Property + "|" + v.Err.Error()
	if !d.seenViol[key] {
		d.seenViol[key] = true
		d.violations = append(d.violations, v)
	}
	if d.cfg.StopAtFirstViolation {
		d.stopped = true
	}
}
