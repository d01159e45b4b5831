package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/telemetry"
	"github.com/nice-go/nice/openflow"
)

// sink keeps the timed loops' results alive so the compiler cannot
// drop the calls.
var sink uint64

// timeLoop calls fn repeatedly for about d and returns the mean
// nanoseconds of one call. fn receives the iteration index.
func timeLoop(d time.Duration, fn func(i int)) float64 {
	const batch = 256
	n := 0
	start := time.Now()
	for {
		for i := 0; i < batch; i++ {
			fn(n + i)
		}
		n += batch
		if el := time.Since(start); el >= d {
			return float64(el.Nanoseconds()) / float64(n)
		}
	}
}

// seededHeader draws a TCP header over a small address space, so
// seeded tables hold overlapping but distinct exact-match rules.
func seededHeader(rng *rand.Rand) openflow.Header {
	return openflow.Header{
		EthSrc:  openflow.MakeEthAddr(0, 0, 0, 0, 0, byte(1+rng.Intn(32))),
		EthDst:  openflow.MakeEthAddr(0, 0, 0, 0, 0, byte(1+rng.Intn(32))),
		EthType: openflow.EthTypeIPv4,
		IPSrc:   openflow.MakeIPAddr(10, 0, byte(rng.Intn(4)), byte(1+rng.Intn(200))),
		IPDst:   openflow.MakeIPAddr(10, 0, byte(rng.Intn(4)), byte(1+rng.Intn(200))),
		IPProto: openflow.IPProtoTCP,
		TPSrc:   uint16(1024 + rng.Intn(4096)),
		TPDst:   80,
	}
}

// seededRules draws n distinct exact-match forwarding rules and the
// headers that hit them.
func seededRules(rng *rand.Rand, n int) ([]openflow.Rule, []openflow.Header) {
	rules := make([]openflow.Rule, 0, n)
	hdrs := make([]openflow.Header, 0, n)
	seen := map[openflow.Header]bool{}
	for len(rules) < n {
		h := seededHeader(rng)
		if seen[h] {
			continue
		}
		seen[h] = true
		inPort := openflow.PortID(1 + rng.Intn(4))
		rules = append(rules, openflow.Rule{
			Priority: 100 + rng.Intn(4),
			Match:    openflow.ExactMatch(h, inPort),
			Actions:  []openflow.Action{openflow.Output(openflow.PortID(1 + rng.Intn(4)))},
		})
		hdrs = append(hdrs, h)
	}
	return rules, hdrs
}

func seededTable(rules []openflow.Rule) *openflow.FlowTable {
	t := openflow.NewFlowTable()
	for _, r := range rules {
		t.Install(r)
	}
	return t
}

// seededSwitch builds a four-port switch holding rules, all ports up.
func seededSwitch(rules []openflow.Rule) *openflow.Switch {
	sw := openflow.NewSwitch(1, []openflow.PortID{1, 2, 3, 4})
	for p := openflow.PortID(1); p <= 4; p++ {
		sw.SetPortUp(p, true)
	}
	for _, r := range rules {
		sw.Table.Install(r)
	}
	return sw
}

// macTable is a pyswitch-shaped controller state for canon.String.
type macTable struct {
	Learned map[openflow.SwitchID]map[openflow.EthAddr]openflow.PortID
	Pending []openflow.Header
}

// benchLayers times the canon and openflow layers on inputs drawn from
// rng, each loop for about d, and files the results in m. These layers
// sit under core.fingerprint and core.apply; their numbers are the same
// kind on every workload because the inputs depend on the seed alone.
func benchLayers(rng *rand.Rand, d time.Duration, m map[string]float64) {
	// canon: the streaming hasher, the one-shot digest and the
	// reflective canonical rendering.
	corpus := make([]string, 256)
	bytesTotal := 0
	for i := range corpus {
		b := make([]byte, 64+rng.Intn(448))
		for j := range b {
			b[j] = byte(32 + rng.Intn(95))
		}
		corpus[i] = string(b)
		bytesTotal += len(b)
	}
	nsPerString := timeLoop(d, func(i int) {
		h := canon.NewHasher()
		h.WriteString(corpus[i%len(corpus)])
		sink += h.Sum()[1]
	})
	meanLen := float64(bytesTotal) / float64(len(corpus))
	m["canon.hasher.mb_per_s"] = meanLen / nsPerString * 1e3
	key96 := corpus[0][:64] + corpus[1][:32]
	m["canon.hash128.ns"] = timeLoop(d, func(int) { sink += canon.Hash128(key96)[1] })
	mt := macTable{Learned: map[openflow.SwitchID]map[openflow.EthAddr]openflow.PortID{}}
	for sw := openflow.SwitchID(1); sw <= 4; sw++ {
		mt.Learned[sw] = map[openflow.EthAddr]openflow.PortID{}
		for j := 0; j < 8; j++ {
			mt.Learned[sw][seededHeader(rng).EthSrc] = openflow.PortID(1 + rng.Intn(4))
		}
	}
	mt.Pending = []openflow.Header{seededHeader(rng), seededHeader(rng)}
	m["canon.string.ns"] = timeLoop(d, func(int) { sink += uint64(len(canon.String(mt))) })

	// openflow: lookup at two table sizes, install, the canonical table
	// key, and packet processing on a hit and on a miss.
	rules8, hdrs8 := seededRules(rng, 8)
	rules64, hdrs64 := seededRules(rng, 64)
	for _, c := range []struct {
		name  string
		rules []openflow.Rule
		hdrs  []openflow.Header
	}{{"r8", rules8, hdrs8}, {"r64", rules64, hdrs64}} {
		t := seededTable(c.rules)
		m["openflow.lookup."+c.name+".ns"] = timeLoop(d, func(i int) {
			k := i % len(c.hdrs)
			var port openflow.PortID
			if v, ok := c.rules[k].Match.Value(openflow.FieldInPort); ok {
				port = openflow.PortID(v)
			}
			idx, _ := t.Lookup(c.hdrs[k], port)
			sink += uint64(idx)
		})
	}
	t8 := seededTable(rules8)
	// Re-installing a rule the table holds replaces it, so the table
	// stays at eight rules however long the loop runs.
	m["openflow.install.ns"] = timeLoop(d, func(i int) { t8.Install(rules8[i%8]) })
	// RenderCanonicalKey is what CanonicalKey runs whenever a rule
	// mutation has invalidated its one-entry cache.
	m["openflow.canonical_key.ns"] = timeLoop(d, func(int) {
		sink += uint64(len(t8.RenderCanonicalKey(false)))
	})
	alloc := openflow.NewIDAlloc()
	hit := seededSwitch(rules8)
	m["openflow.process_packet.hit.ns"] = timeLoop(d, func(i int) {
		k := i % 8
		v, _ := rules8[k].Match.Value(openflow.FieldInPort)
		id := alloc.Next()
		hit.Enqueue(openflow.PortID(v), openflow.Packet{Header: hdrs8[k], ID: id, Orig: id})
		sink += uint64(len(hit.ProcessPackets(alloc).Outputs))
	})
	miss := seededSwitch(rules8)
	stranger := seededHeader(rng)
	stranger.TPDst = 22 // no seeded rule matches port 22
	m["openflow.process_packet.miss.ns"] = timeLoop(d, func(int) {
		id := alloc.Next()
		miss.Enqueue(1, openflow.Packet{Header: stranger, ID: id, Orig: id})
		sink += uint64(len(miss.ProcessPackets(alloc).ToController))
		miss.TakeAllBuffered() // a miss parks the packet; keep the buffer flat
	})
}

// namedConfig is one configuration a workload searches.
type namedConfig struct {
	name  string
	build func() *core.Config
}

// benchConfigLayers times, for each configuration the workload
// searches, the steps every search pays before its first state:
// building the scenario, booting the initial System, and one cold
// symbolic exploration per host (discover_packets from empty caches).
func benchConfigLayers(tr *tracer, cfgs []namedConfig, reps int, m map[string]float64) {
	reg := telemetry.New()
	explores := 0
	for _, nc := range cfgs {
		for r := 0; r < reps; r++ {
			op := fmt.Sprintf("%s#%d", nc.name, r)
			id := tr.begin("scenarios.build", op, -1)
			cfg := nc.build()
			tr.end(id)
			id = tr.begin("core.new_system", op, -1)
			sys := core.NewSystem(cfg)
			tr.end(id)
			if cfg.DisableSE {
				continue
			}
			for _, h := range sys.HostIDs() {
				// Fresh caches make every exploration cold; the shared
				// registry adds up paths and solver calls.
				cc := core.NewCaches()
				cc.AttachTelemetry(reg)
				cold := core.NewSystemWith(cfg, cc)
				id = tr.begin("sym.explore.cold", op, -1)
				cold.DiscoverPacketClasses(h)
				tr.end(id)
				explores++
			}
		}
	}
	m["scenarios.build.ns"] = tr.agg("scenarios.build").meanSelfNS()
	m["sym.explore.cold.ns"] = tr.agg("sym.explore.cold").meanSelfNS()
	// The registry's own exploration counter restarts with every cache
	// set attached to it, so the explorations are counted here.
	if explores > 0 {
		m["sym.paths_per_explore"] = float64(reg.Snapshot().Counter("sym.paths")) / float64(explores)
	}
}
