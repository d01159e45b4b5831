package controller

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/cow"
	"github.com/nice-go/nice/internal/sym"
	"github.com/nice-go/nice/openflow"
)

// App is an OpenFlow controller application under test. Handlers execute
// atomically: the model checker invokes one handler per controller
// transition. Implementations embed BaseApp for the handlers they do not
// care about.
//
// Two extra obligations make the app checkable:
//
//   - Clone must deep-copy all mutable state (every explored system
//     starts from a clone of the prototype, and discover_packets runs
//     handlers on throwaway clones while the receiver stays live);
//   - StateKey must render the app state canonically (internal/canon's
//     String helper does this for free), because state matching and the
//     relevant-packet cache are keyed by the stringified controller
//     state, exactly as in Figure 5 of the paper.
//
// Applications whose Clone cost matters should additionally implement
// ForkableApp: the copy-on-write search path then forks the app in O(1)
// and the deep copy happens only if a later handler actually mutates
// state.
type App interface {
	Name() string

	// SwitchJoin handles a switch joining the network.
	SwitchJoin(ctx *Context, sw openflow.SwitchID)
	// SwitchLeave handles a switch leaving the network.
	SwitchLeave(ctx *Context, sw openflow.SwitchID)
	// PacketIn handles a packet sent to the controller. pkt carries
	// concolic header fields; buf identifies the switch buffer holding
	// the packet (BufferNone during symbolic execution).
	PacketIn(ctx *Context, sw openflow.SwitchID, pkt *sym.Packet, buf openflow.BufferID, reason openflow.PacketInReason)
	// StatsReply handles a port-statistics reply; stats values are
	// concolic.
	StatsReply(ctx *Context, sw openflow.SwitchID, stats *sym.Stats)
	// BarrierReply handles a barrier acknowledgment.
	BarrierReply(ctx *Context, sw openflow.SwitchID, xid int)
	// PortStatus handles a port going up or down.
	PortStatus(ctx *Context, sw openflow.SwitchID, port openflow.PortID, up bool)

	Clone() App
	StateKey() string
}

// EmissionScope is an optional App refinement used by partial-order
// reduction: it bounds which switches a handler invocation may emit
// messages to (flow mods, packet-outs, stats/barrier requests), as a
// function of the switch whose message is being handled. EmitsTo must
// over-approximate every emission of every handler (PacketIn,
// StatsReply, BarrierReply, SwitchJoin/Leave, PortStatus) for messages
// from sw, in every reachable application state. Return ok=false to
// make no claim for that switch (the reduction then assumes the
// handler may emit anywhere). Applications that do not implement the
// interface are treated as unconstrained; a too-narrow claim makes the
// reduction unsound, so only implement it when the bound is a simple
// structural fact of the handler code.
type EmissionScope interface {
	EmitsTo(sw openflow.SwitchID) (targets []openflow.SwitchID, ok bool)
}

// StatePartition is an optional App refinement used by partial-order
// reduction: it claims the application's mutable state decomposes into
// per-switch partitions, such that every handler invocation for a
// switch-originated message (PacketIn, StatsReply, BarrierReply,
// SwitchJoin/Leave, PortStatus from switch sw) reads and writes
// partition sw alone. Handlers for host or environment events may
// still touch every partition — the reduction treats those as
// whole-state accesses. Under the claim, controller work for different
// switches commutes on application state, so dispatch transitions for
// different switches become independent. A false claim makes the
// reduction unsound; only implement it when per-switch isolation is a
// structural fact of the state layout (e.g. a table keyed by switch).
type StatePartition interface {
	PartitionedBySwitch() bool
}

// ForkableApp is the copy-on-write forking contract for applications
// (the App-interface half of the internal/cow protocol). Fork returns a
// fork that MAY share internal mutable state with the receiver under
// two ownership rules:
//
//  1. The caller guarantees the receiver is frozen: after Fork it will
//     never be mutated again through any reference. The COW runtime
//     guarantees this by epoch retirement — a forked System can only
//     reach the old app through frozen runtimes.
//  2. The fork must copy any borrowed mutable state before its own
//     first mutation (the ensureOwned step), so handler writes never
//     reach state the frozen receiver still exposes to concurrent
//     readers.
//
// Clone keeps its full deep-copy semantics and remains required: it is
// used where the receiver stays live and mutable — discover_packets'
// throwaway handler runs — and by forkApp for an app without Fork.
type ForkableApp interface {
	App
	// Fork returns a copy-on-write fork of the application; the
	// receiver must be treated as frozen afterwards.
	Fork() App
}

// forkApp forks via ForkableApp when implemented, falling back to a
// deep Clone.
func forkApp(a App) App {
	if f, ok := a.(ForkableApp); ok {
		return f.Fork()
	}
	return a.Clone()
}

// Versioned is the AppKey dirty hook: applications that bump a version
// counter at every state mutation implement it (embed VersionCounter),
// and the runtime then caches the rendered StateKey until the version
// moves. Applications without it get conservative invalidation — the
// cache is dropped on every dispatched handler, mutating or not.
type Versioned interface {
	// StateVersion returns a counter that changes (strictly increases)
	// whenever the application's hashable state mutates.
	StateVersion() uint64
}

// VersionCounter is the embeddable implementation of Versioned. (The
// field must not be named like the method, or embedding would shadow
// the promoted StateVersion method — TestAppsImplementVersioned guards
// this.) Handlers call BumpStateVersion at every mutation site;
// value-copying clones (c := *a) carry the counter over, which is
// correct because the clone starts in an identical state.
type VersionCounter struct{ version uint64 }

// BumpStateVersion marks one state mutation.
func (s *VersionCounter) BumpStateVersion() { s.version++ }

// StateVersion implements Versioned.
func (s *VersionCounter) StateVersion() uint64 { return s.version }

// EnvApp is implemented by applications with environment transitions —
// out-of-band reconfiguration commands such as the load balancer's
// policy change (§8.2). The checker exposes one transition per enabled
// event name.
type EnvApp interface {
	App
	// EnvEvents lists the currently enabled environment events.
	EnvEvents() []string
	// EnvApply executes one.
	EnvApply(ctx *Context, event string)
}

// BaseApp provides no-op handler implementations.
type BaseApp struct{}

// SwitchJoin implements App.
func (BaseApp) SwitchJoin(*Context, openflow.SwitchID) {}

// SwitchLeave implements App.
func (BaseApp) SwitchLeave(*Context, openflow.SwitchID) {}

// PacketIn implements App.
func (BaseApp) PacketIn(*Context, openflow.SwitchID, *sym.Packet, openflow.BufferID, openflow.PacketInReason) {
}

// StatsReply implements App.
func (BaseApp) StatsReply(*Context, openflow.SwitchID, *sym.Stats) {}

// BarrierReply implements App.
func (BaseApp) BarrierReply(*Context, openflow.SwitchID, int) {}

// PortStatus implements App.
func (BaseApp) PortStatus(*Context, openflow.SwitchID, openflow.PortID, bool) {}

// Context is the per-invocation handler context: the branch-recording
// trace plus the actuator. Handlers route packet-dependent conditions
// through If and emit switch commands through the actuator methods; the
// runtime collects the emitted messages and the model checker delivers
// them (asynchronously, unless NO-DELAY collapses the exchange).
type Context struct {
	tr   *sym.Trace
	msgs []openflow.Msg
	// symbolic marks discover_packets / discover_stats executions:
	// actuator effects are recorded but will be discarded by the
	// caller together with the cloned app.
	symbolic bool
	// rt is set on runtime-issued contexts: barrier xids come straight
	// from the runtime counter, avoiding a closure allocation per
	// dispatched handler. nextXid is the stand-alone fallback.
	rt      *Runtime
	nextXid func() int
}

// NewContext builds a concrete-execution context. nextXid allocates
// barrier correlation IDs (the runtime supplies it; tests may pass nil
// to get a local counter).
func NewContext(nextXid func() int) *Context {
	return newContext(nil, false, nextXid)
}

// NewSymContext builds a concolic-execution context recording into tr.
func NewSymContext(tr *sym.Trace) *Context {
	return newContext(tr, true, nil)
}

func newContext(tr *sym.Trace, symbolic bool, nextXid func() int) *Context {
	ctx := &Context{tr: tr, symbolic: symbolic, nextXid: nextXid}
	if ctx.nextXid == nil {
		n := 0
		ctx.nextXid = func() int { n++; return n }
	}
	return ctx
}

// allocXid hands out the next barrier correlation ID.
func (c *Context) allocXid() int {
	if c.rt != nil {
		c.rt.xid++
		return c.rt.xid
	}
	return c.nextXid()
}

// If evaluates a concolic condition, recording the branch when executing
// symbolically. This is the one instrumentation point applications use
// in place of bare if statements over packet or stats data.
func (c *Context) If(b sym.Bool) bool { return c.tr.If(b) }

// Trace exposes the recording trace (for the sym.Lookup* map stubs).
func (c *Context) Trace() *sym.Trace { return c.tr }

// Symbolic reports whether this execution is a discover transition.
func (c *Context) Symbolic() bool { return c.symbolic }

// InstallRule sends a flow_mod add to a switch — the install_rule call of
// the paper's Figure 3.
func (c *Context) InstallRule(sw openflow.SwitchID, r openflow.Rule) {
	c.emit(openflow.Msg{Type: openflow.MsgFlowMod, Switch: sw, Cmd: openflow.FlowAdd, Rule: r})
}

// DeleteRule sends a loose flow_mod delete matching pattern.
func (c *Context) DeleteRule(sw openflow.SwitchID, pattern openflow.Match) {
	c.emit(openflow.Msg{Type: openflow.MsgFlowMod, Switch: sw, Cmd: openflow.FlowDelete,
		Rule: openflow.Rule{Match: pattern}})
}

// DeleteRuleStrict sends a strict flow_mod delete.
func (c *Context) DeleteRuleStrict(sw openflow.SwitchID, pattern openflow.Match, priority int) {
	c.emit(openflow.Msg{Type: openflow.MsgFlowMod, Switch: sw, Cmd: openflow.FlowDeleteStrict,
		Rule: openflow.Rule{Match: pattern, Priority: priority}})
}

// PacketOut releases a buffered packet with the given actions — the
// send_packet_out call of Figure 3.
func (c *Context) PacketOut(sw openflow.SwitchID, buf openflow.BufferID, actions ...openflow.Action) {
	c.emit(openflow.Msg{Type: openflow.MsgPacketOut, Switch: sw, Buffer: buf, Actions: actions})
}

// PacketOutData injects a controller-crafted packet (e.g. a proxied ARP
// reply) on a switch.
func (c *Context) PacketOutData(sw openflow.SwitchID, h openflow.Header, inPort openflow.PortID, actions ...openflow.Action) {
	c.emit(openflow.Msg{Type: openflow.MsgPacketOut, Switch: sw, Buffer: openflow.BufferNone,
		Packet: openflow.Packet{Header: h}, InPort: inPort, Actions: actions})
}

// FloodPacket releases a buffered packet with the flood action — the
// flood_packet call of Figure 3.
func (c *Context) FloodPacket(sw openflow.SwitchID, buf openflow.BufferID) {
	c.PacketOut(sw, buf, openflow.Flood())
}

// RequestStats queries a switch for port statistics (PortNone = all).
func (c *Context) RequestStats(sw openflow.SwitchID, port openflow.PortID) {
	c.emit(openflow.Msg{Type: openflow.MsgStatsRequest, Switch: sw, StatsPort: port})
}

// Barrier sends a barrier_request and returns its correlation ID.
func (c *Context) Barrier(sw openflow.SwitchID) int {
	xid := c.allocXid()
	c.emit(openflow.Msg{Type: openflow.MsgBarrierRequest, Switch: sw, Xid: xid})
	return xid
}

func (c *Context) emit(m openflow.Msg) { c.msgs = append(c.msgs, m) }

// Messages returns the messages the handler emitted, in order.
func (c *Context) Messages() []openflow.Msg { return c.msgs }

// Runtime is the controller component of the modelled system: the
// application plus the per-switch message channels. The channel to each
// switch is reliable and in-order (§2.2.2: "The channel with the
// controller offers reliable, in-order delivery of OpenFlow messages").
type Runtime struct {
	App App

	// inQ holds switch→controller messages per switch.
	inQ map[openflow.SwitchID][]openflow.Msg
	// outQ holds controller→switch messages per switch.
	outQ map[openflow.SwitchID][]openflow.Msg

	// seq stamps controller→switch messages with a global issue order
	// (consumed by the UNUSUAL strategy). xid numbers barriers. Both
	// are scheduler metadata, deliberately excluded from state hashes.
	seq int
	xid int

	// Incremental-fingerprinting caches: the rendered application key
	// (with its digest and, for Versioned apps, the version it was
	// rendered at) and the structural hashes of the two channel maps.
	// Each is valid until the corresponding state mutates; Clone copies
	// all three.
	appKey       string
	appKeyDigest canon.Digest
	appKeyValid  bool
	appVersion   uint64
	inKeyHash    uint64
	inKeyValid   bool
	outKeyHash   uint64
	outKeyValid  bool

	// Tag is the copy-on-write ownership marker (internal/cow): the
	// System owning this runtime compares it against its current epoch
	// and forks before mutating when they differ.
	cow.Tag

	// borrowApp / borrowIn / borrowOut mark the application and the two
	// channel maps as shared with the runtime this one was forked from;
	// each is copied (the app via ForkableApp.Fork when implemented)
	// before its first mutation. The flags live only on the exclusive
	// fork — the frozen source is never written.
	borrowApp, borrowIn, borrowOut bool
}

// NewRuntime wraps an application.
func NewRuntime(app App) *Runtime {
	return &Runtime{
		App:  app,
		inQ:  make(map[openflow.SwitchID][]openflow.Msg),
		outQ: make(map[openflow.SwitchID][]openflow.Msg),
	}
}

// Fork returns a copy-on-write fork owned at epoch owner: an O(1)
// struct copy borrowing the application and both channel maps. The
// receiver must be frozen afterwards (the System-level protocol
// guarantees this by retiring its epoch); the fork copies each borrowed
// piece before its own first mutation of it. Queued messages are never
// copied at all — a message is immutable once enqueued.
func (r *Runtime) Fork(owner uint64) *Runtime {
	c := *r
	c.SetOwner(owner)
	c.borrowApp, c.borrowIn, c.borrowOut = true, true, true
	return &c
}

// ownApp forks the borrowed application before the first handler
// dispatch mutates it.
func (r *Runtime) ownApp() {
	if !r.borrowApp {
		return
	}
	r.App = forkApp(r.App)
	r.borrowApp = false
}

// ownInQ copies the borrowed switch→controller channel map before its
// first mutation; queue slices are capacity-clamped so appends
// reallocate instead of writing a shared backing array.
func (r *Runtime) ownInQ() {
	if !r.borrowIn {
		return
	}
	r.inQ = copyQueues(r.inQ)
	r.borrowIn = false
}

// ownOutQ is ownInQ for the controller→switch channel map.
func (r *Runtime) ownOutQ() {
	if !r.borrowOut {
		return
	}
	r.outQ = copyQueues(r.outQ)
	r.borrowOut = false
}

func copyQueues(m map[openflow.SwitchID][]openflow.Msg) map[openflow.SwitchID][]openflow.Msg {
	c := make(map[openflow.SwitchID][]openflow.Msg, len(m))
	for sw, q := range m {
		c[sw] = q[:len(q):len(q)]
	}
	return c
}

// DeliverToController enqueues a switch→controller message.
func (r *Runtime) DeliverToController(m openflow.Msg) {
	r.ownInQ()
	r.inKeyValid = false
	r.inQ[m.Switch] = append(r.inQ[m.Switch], m.MemoKeyHash())
}

// InLen reports the inbound (switch→controller) queue length for a
// switch. The reduction layer uses it to tell head from tail accesses.
func (r *Runtime) InLen(sw openflow.SwitchID) int { return len(r.inQ[sw]) }

// OutLen reports the outbound (controller→switch) queue length for a
// switch.
func (r *Runtime) OutLen(sw openflow.SwitchID) int { return len(r.outQ[sw]) }

// PendingIn returns the switches with queued inbound messages, sorted.
func (r *Runtime) PendingIn() []openflow.SwitchID { return pendingSorted(nil, r.inQ) }

// PendingOut returns the switches with queued outbound messages, sorted.
func (r *Runtime) PendingOut() []openflow.SwitchID { return pendingSorted(nil, r.outQ) }

// HeadIn returns the next inbound message from a switch without
// consuming it.
func (r *Runtime) HeadIn(sw openflow.SwitchID) (openflow.Msg, bool) {
	q := r.inQ[sw]
	if len(q) == 0 {
		return openflow.Msg{}, false
	}
	return q[0], true
}

// PopIn consumes the next inbound message from a switch.
func (r *Runtime) PopIn(sw openflow.SwitchID) (openflow.Msg, bool) {
	q := r.inQ[sw]
	if len(q) == 0 {
		return openflow.Msg{}, false
	}
	r.ownInQ()
	r.inKeyValid = false
	popHead(r.inQ, sw, q)
	return q[0], true
}

// popHead drops the head of switch sw's queue q. Sharing the tail is
// safe: queue backings are never written in place (appends on forks
// reallocate past the clamped capacity). A drained queue leaves the
// map, so the channel hashes and the next fork's map copy walk only
// the switches that have something pending.
func popHead(m map[openflow.SwitchID][]openflow.Msg, sw openflow.SwitchID, q []openflow.Msg) {
	if len(q) == 1 {
		delete(m, sw)
	} else {
		m[sw] = q[1:]
	}
}

// HeadOut returns the next outbound message for a switch without
// consuming it.
func (r *Runtime) HeadOut(sw openflow.SwitchID) (openflow.Msg, bool) {
	q := r.outQ[sw]
	if len(q) == 0 {
		return openflow.Msg{}, false
	}
	return q[0], true
}

// PopOut consumes the next outbound message for a switch.
func (r *Runtime) PopOut(sw openflow.SwitchID) (openflow.Msg, bool) {
	q := r.outQ[sw]
	if len(q) == 0 {
		return openflow.Msg{}, false
	}
	r.ownOutQ()
	r.outKeyValid = false
	popHead(r.outQ, sw, q)
	return q[0], true
}

// Emit stamps and enqueues handler-emitted messages onto the outbound
// channels.
func (r *Runtime) Emit(msgs []openflow.Msg) {
	if len(msgs) > 0 {
		r.ownOutQ()
		r.outKeyValid = false
	}
	for _, m := range msgs {
		r.seq++
		m.Seq = r.seq
		r.outQ[m.Switch] = append(r.outQ[m.Switch], m.MemoKeyHash())
	}
}

// NewContext builds a concrete handler context wired to the runtime's
// xid allocator.
func (r *Runtime) NewContext() *Context {
	return &Context{rt: r}
}

// appDirty marks a handler run: for apps without the Versioned dirty
// hook the cached key is dropped unconditionally; Versioned apps keep
// their cache until their version counter moves.
func (r *Runtime) appDirty() {
	if _, ok := r.App.(Versioned); !ok {
		r.appKeyValid = false
	}
}

// Dispatch executes the handler for one inbound message on the app,
// returning the emitted messages (already enqueued via Emit).
func (r *Runtime) Dispatch(m openflow.Msg) []openflow.Msg {
	r.ownApp()
	r.appDirty()
	ctx := r.NewContext()
	switch m.Type {
	case openflow.MsgPacketIn:
		pkt := sym.ConcretePacket(m.Packet.Header, m.InPort)
		r.App.PacketIn(ctx, m.Switch, pkt, m.Buffer, m.Reason)
	case openflow.MsgSwitchJoin:
		r.App.SwitchJoin(ctx, m.Switch)
	case openflow.MsgSwitchLeave:
		r.App.SwitchLeave(ctx, m.Switch)
	case openflow.MsgStatsReply:
		r.App.StatsReply(ctx, m.Switch, sym.ConcreteStats(m.Stats))
	case openflow.MsgBarrierReply:
		r.App.BarrierReply(ctx, m.Switch, m.Xid)
	case openflow.MsgPortStatus:
		r.App.PortStatus(ctx, m.Switch, m.InPort, m.PortUp)
	default:
		panic(fmt.Sprintf("controller: cannot dispatch %v", m.Type))
	}
	r.Emit(ctx.Messages())
	return ctx.Messages()
}

// DispatchStats executes the stats handler with checker-chosen concrete
// stats values (the process_stats transition armed by discover_stats).
func (r *Runtime) DispatchStats(sw openflow.SwitchID, stats []openflow.PortStats) []openflow.Msg {
	r.ownApp()
	r.appDirty()
	ctx := r.NewContext()
	r.App.StatsReply(ctx, sw, sym.ConcreteStats(stats))
	r.Emit(ctx.Messages())
	return ctx.Messages()
}

// DispatchEnv executes an environment event on an EnvApp.
func (r *Runtime) DispatchEnv(event string) []openflow.Msg {
	r.ownApp()
	env, ok := r.App.(EnvApp)
	if !ok {
		panic(fmt.Sprintf("controller: app %s has no environment events", r.App.Name()))
	}
	r.appDirty()
	ctx := r.NewContext()
	env.EnvApply(ctx, event)
	r.Emit(ctx.Messages())
	return ctx.Messages()
}

// StateKey renders the controller component canonically, from scratch:
// the app's own canonical state plus both channel contents — the string
// twin of AppKeyDigest/InKeyHash64/OutKeyHash64 that the oracle and
// debug output read. seq/xid counters are excluded (scheduler metadata;
// see docs/ARCHITECTURE.md, "Deviations from the paper").
func (r *Runtime) StateKey() string {
	var b strings.Builder
	b.WriteString("app{")
	b.WriteString(r.App.StateKey())
	b.WriteString("} in{")
	writeQueues(&b, r.inQ)
	b.WriteString("} out{")
	writeQueues(&b, r.outQ)
	b.WriteString("}")
	return b.String()
}

// AppKey renders only the application state — the key of the
// relevant-packet cache (client.packets in Figure 5 is keyed by
// "stringified controller state"). The rendering is cached: Versioned
// apps re-render only when their version counter moves, other apps
// whenever any handler has run since the last call.
func (r *Runtime) AppKey() string {
	if v, ok := r.App.(Versioned); ok {
		if ver := v.StateVersion(); !r.appKeyValid || r.appVersion != ver {
			r.fillAppKey()
			r.appVersion = ver
		}
	} else if !r.appKeyValid {
		r.fillAppKey()
	}
	return r.appKey
}

func (r *Runtime) fillAppKey() {
	r.appKey = r.App.StateKey()
	r.appKeyDigest = canon.Hash128(r.appKey)
	r.appKeyValid = true
}

// AppKeyDigest returns the cached 128-bit digest of AppKey — the
// discover-cache key component (core keys its relevant-packet memo by
// it instead of the full string, keeping lookups allocation-free) and
// the application component System.Fingerprint combines.
func (r *Runtime) AppKeyDigest() canon.Digest {
	r.AppKey()
	return r.appKeyDigest
}

// InKeyHash64 returns the structural hash of the switch→controller
// channel contents — the channel component System.Fingerprint combines
// — cached until the next queue mutation.
func (r *Runtime) InKeyHash64() uint64 {
	if !r.inKeyValid {
		r.inKeyHash = hashQueues(r.inQ, false)
		r.inKeyValid = true
	}
	return r.inKeyHash
}

// OutKeyHash64 is InKeyHash64 for the controller→switch channels.
func (r *Runtime) OutKeyHash64() uint64 {
	if !r.outKeyValid {
		r.outKeyHash = hashQueues(r.outQ, false)
		r.outKeyValid = true
	}
	return r.outKeyHash
}

// FreshKeyHashes recomputes both channel hashes from scratch, ignoring
// the caches and every message's memoized hash — the side VerifyCaches
// compares InKeyHash64 and OutKeyHash64 against.
func (r *Runtime) FreshKeyHashes() (in, out uint64) {
	return hashQueues(r.inQ, true), hashQueues(r.outQ, true)
}

// pendingSorted appends the switches with queued messages to buf in
// ascending order. Channel hashes re-run on every queue mutation, so
// the caller passes a stack buffer, and the insertion sort avoids
// sort.Slice's closure (which would force that buffer to the heap).
func pendingSorted(buf []openflow.SwitchID, m map[openflow.SwitchID][]openflow.Msg) []openflow.SwitchID {
	for sw, q := range m {
		if len(q) > 0 {
			buf = append(buf, sw)
		}
	}
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && buf[j] < buf[j-1]; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	return buf
}

// hashQueues chains, per pending switch in ID order, the queue length
// and each message's hash — memoized at enqueue unless fresh is set.
func hashQueues(m map[openflow.SwitchID][]openflow.Msg, fresh bool) uint64 {
	var kbuf [16]openflow.SwitchID
	h := canon.NewMix(0)
	for _, sw := range pendingSorted(kbuf[:0], m) {
		q := m[sw]
		h = h.Word(uint64(sw)).Word(uint64(len(q)))
		for i := range q {
			if fresh {
				h = h.Word(q[i].FreshKeyHash64())
			} else {
				h = h.Word(q[i].KeyHash64())
			}
		}
	}
	return h.Sum()
}

func writeQueues(b *strings.Builder, m map[openflow.SwitchID][]openflow.Msg) {
	var kbuf [16]openflow.SwitchID
	for _, sw := range pendingSorted(kbuf[:0], m) {
		b.WriteByte('s')
		b.WriteString(strconv.Itoa(int(sw)))
		b.WriteString(":[")
		for i, msg := range m[sw] {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(msg.Key())
		}
		b.WriteString("]")
	}
}
