package core

import (
	"sort"
	"sync"

	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/hosts"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

// GroupKeyFunc maps a packet header to its flow-group key for the
// FLOW-IR strategy. Two headers with equal keys belong to the same flow
// group; the strategy explores only one relative ordering between
// different groups (§4). This is the group-function form of the paper's
// pairwise isSameFlow callback: for an equivalence relation the two are
// interchangeable, and the key form composes with deterministic search.
//
// newInstance marks packets that begin a new, independent flow instance
// (the load balancer treats every TCP SYN this way, which is exactly why
// FLOW-IR misses BUG-VII: "the duplicate SYN is treated as a new
// independent flow", §8.4). Instances of the same key get distinct
// effective groups numbered in send order.
type GroupKeyFunc func(h openflow.Header) (key string, newInstance bool)

// EnvGroupKeyFunc optionally assigns environment events to a flow group
// so reconfigurations participate in FLOW-IR's single relative ordering
// (nil leaves them unrestricted).
type EnvGroupKeyFunc func(event string) string

// DomainHints supplies the domain knowledge that bounds symbolic packet
// fields (§3.2): extra addresses beyond the topology's (e.g. a load
// balancer's virtual IP) and plausible protocol constants. Zero-value
// hints select sensible defaults; a field without a hint of its own
// (IP protocol, TCP flags and sequence numbers, ARP opcodes) is pinned
// through Overrides.
type DomainHints struct {
	ExtraMACs []openflow.EthAddr
	ExtraIPs  []openflow.IPAddr
	EthTypes  []uint16
	Ports     []uint16
	// Overrides pins individual fields to explicit candidate sets,
	// replacing the defaults entirely — scenario-level domain knowledge
	// such as "clients only address the service VIP".
	Overrides map[openflow.Field][]uint64
}

// Config describes one checking task: the system model, the properties,
// the search strategy and the budgets.
type Config struct {
	// Topo is the network (required).
	Topo *topo.Topology
	// App, Hosts and Properties are prototypes: every NewSystem forks
	// them (App.Clone, Host.Fork, Property.Clone), and the forks may
	// share their state, so they must not be mutated after the first
	// search. The checker never writes them.
	//
	// App is the controller application under test (required).
	App controller.App
	// Hosts are the end hosts (required).
	Hosts []*hosts.Host
	// Properties are the correctness properties to check, any number
	// of them.
	Properties []Property

	// --- Search strategy (§4) ---

	// NoDelay enables the NO-DELAY strategy: every controller↔switch
	// exchange completes atomically within the triggering transition
	// ("the global system runs in lock step"). Stats replies dispatch
	// with their concrete values, so threshold-crossing behaviours are
	// deliberately out of reach — see docs/ARCHITECTURE.md, "Deviations
	// from the paper".
	NoDelay bool
	// Unusual enables the UNUSUAL strategy: depth-first exploration
	// prefers orderings that delay and reverse controller→switch
	// deliveries, surfacing rule-install races early.
	Unusual bool
	// FlowGroupKey enables FLOW-IR with the given grouping. nil = off.
	FlowGroupKey GroupKeyFunc
	// EnvGroupKey optionally folds environment events into FLOW-IR's
	// ordering (requires FlowGroupKey).
	EnvGroupKey EnvGroupKeyFunc

	// --- Ablations / baselines (§7) ---

	// NoSwitchReduction disables the canonical switch-state
	// representation, reproducing the NO-SWITCH-REDUCTION baseline of
	// Table 1: flow tables hash in raw arrival order and rule counters
	// and ages hash verbatim — §2.2.2's strawman of "the values of all
	// variables" as switch state.
	NoSwitchReduction bool
	// DisableSE turns off discover_packets/discover_stats; hosts send
	// from their fixed Repertoire instead (the developer-supplied
	// "relevant inputs" strawman of §2.2.1).
	DisableSE bool
	// MicroSteps switches process_pkt to one-packet-per-channel
	// granularity (the fine-grained baseline; see docs/ARCHITECTURE.md,
	// "Deviations from the paper").
	MicroSteps bool

	// --- Budgets ---

	// MaxDepth bounds execution length (transitions per trace);
	// 0 = 400. Paths that hit the bound are recorded as truncated.
	MaxDepth int
	// StopAtFirstViolation ends the search at the first property
	// violation (Table 2's time-to-first-violation setup).
	StopAtFirstViolation bool

	// Domains tunes symbolic-input domain knowledge.
	Domains DomainHints

	// EnableTimers adds the optional flow-timeout tick transition.
	EnableTimers bool
	// Faults enables the optional channel/topology fault model
	// (§2.2.2); all budgets default to zero (off).
	Faults FaultModel
	// EnablePortStatus delivers port_status events to the controller
	// when host moves change port link state.
	EnablePortStatus bool
	// AtomicEnv applies the switch updates an environment event emits
	// within the same transition (the reconfiguration completes before
	// traffic resumes). Scenario definitions use it to separate
	// reconfiguration-window races (BUG-V's own scenario) from bugs
	// that need an established pre-change state (BUG-VII).
	AtomicEnv bool
}

func (c *Config) maxDepth() int {
	if c.MaxDepth <= 0 {
		return 400
	}
	return c.MaxDepth
}

// DepthBound is the effective execution depth bound (MaxDepth with its
// default applied): every engine truncates there.
func (c *Config) DepthBound() int { return c.maxDepth() }

// tableHashMode says how switches hash and render their flow tables:
// canonically (order-free) and without rule counters, unless
// NO-SWITCH-REDUCTION is on.
func (c *Config) tableHashMode() (canonical, counters bool) {
	return !c.NoSwitchReduction, c.NoSwitchReduction
}

// symInputs is a search's symbolic packet-field domains, built once.
type symInputs struct {
	once    sync.Once
	domains map[string][]uint64
}

// fieldDomains returns c.fieldDomains(), building it on the first call.
func (in *symInputs) fieldDomains(c *Config) map[string][]uint64 {
	in.once.Do(func() { in.domains = c.fieldDomains() })
	return in.domains
}

// fieldDomains builds the per-variable candidate sets for symbolic
// packet fields from the topology plus hints — the explicit form of the
// paper's "MAC and IP addresses used by the hosts and switches in the
// system model, as specified by the input topology" (§3.2).
func (c *Config) fieldDomains() map[string][]uint64 {
	d := make(map[string][]uint64)

	var macs []uint64
	var ips []uint64
	for _, h := range c.Topo.Hosts() {
		macs = append(macs, uint64(h.MAC))
		ips = append(ips, uint64(h.IP))
	}
	for _, m := range c.Domains.ExtraMACs {
		macs = append(macs, uint64(m))
	}
	for _, ip := range c.Domains.ExtraIPs {
		ips = append(ips, uint64(ip))
	}
	// One address outside the topology per MAC/IP field lets symbolic
	// execution reach the "unknown address" paths.
	macs = append(macs, uint64(openflow.BroadcastEth),
		uint64(openflow.MakeEthAddr(0x0a, 0xbb, 0xcc, 0xdd, 0xee, 0x01)))
	ips = append(ips, uint64(openflow.MakeIPAddr(172, 16, 99, 99)))
	d[openflow.FieldEthSrc.String()] = dedupSorted(macs)
	d[openflow.FieldEthDst.String()] = dedupSorted(macs)
	d[openflow.FieldIPSrc.String()] = dedupSorted(ips)
	d[openflow.FieldIPDst.String()] = dedupSorted(ips)

	ethTypes := c.Domains.EthTypes
	if ethTypes == nil {
		ethTypes = []uint16{openflow.EthTypeIPv4, openflow.EthTypeARP}
	}
	d[openflow.FieldEthType.String()] = uints(ethTypes)

	d[openflow.FieldIPProto.String()] = []uint64{uint64(openflow.IPProtoTCP)}

	ports := c.Domains.Ports
	if ports == nil {
		ports = []uint16{80, 5555}
	}
	d[openflow.FieldTPSrc.String()] = uints(ports)
	d[openflow.FieldTPDst.String()] = uints(ports)

	d[openflow.FieldTCPFlags.String()] = uints([]uint8{0, openflow.TCPSyn, openflow.TCPAck, openflow.TCPSyn | openflow.TCPAck})
	d[openflow.FieldTCPSeq.String()] = []uint64{1000}
	d[openflow.FieldArpOp.String()] = uints([]uint8{openflow.ArpRequest, openflow.ArpReply})

	d[openflow.FieldVLAN.String()] = []uint64{0}
	d[openflow.FieldVLANPCP.String()] = []uint64{0}
	d[openflow.FieldIPTOS.String()] = []uint64{0}

	for f, vals := range c.Domains.Overrides {
		d[f.String()] = dedupSorted(vals)
	}
	return d
}

// fieldBits gives each symbolic packet field's width by variable name.
var fieldBits = func() map[string]int {
	bits := make(map[string]int, openflow.NumFields)
	for f := openflow.Field(0); int(f) < openflow.NumFields; f++ {
		bits[f.String()] = f.Bits()
	}
	return bits
}()

func dedupSorted(vs []uint64) []uint64 {
	set := make(map[uint64]bool, len(vs))
	for _, v := range vs {
		set[v] = true
	}
	out := make([]uint64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// uints widens a hint list into a field's sorted candidate set.
func uints[T uint8 | uint16 | uint32](vs []T) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = uint64(v)
	}
	return dedupSorted(out)
}
