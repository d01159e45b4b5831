package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/nice-go/nice/hosts"
	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/sym"
	"github.com/nice-go/nice/internal/telemetry"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

// pkeyN builds a distinct packets-cache key from an integer.
func pkeyN(i int) packetsCacheKey {
	return packetsCacheKey{
		host: openflow.HostID(i),
		loc:  topo.PortKey{Sw: 1, Port: 1},
		app:  canon.Hash128(fmt.Sprintf("app-state-%d", i)),
	}
}

// skeyN builds a distinct stats-cache key from an integer.
func skeyN(i int) statsCacheKey {
	return statsCacheKey{sw: openflow.SwitchID(i), app: canon.Hash128(fmt.Sprintf("stats-state-%d", i))}
}

// memoKind drives one instantiation of memo[K, V] through ints and
// strings, so one table covers all three.
type memoKind struct {
	name string
	put  func(cc *Caches, i int, tag string) (canonical string, won bool)
	get  func(cc *Caches, i int) (tag string, ok bool)
}

var memoKinds = []memoKind{
	{"packets",
		func(cc *Caches, i int, tag string) (string, bool) {
			v, won := cc.packets.put(pkeyN(i), []openflow.Header{{Payload: tag}})
			return v[0].Payload, won
		},
		func(cc *Caches, i int) (string, bool) {
			v, ok := cc.packets.get(pkeyN(i))
			if !ok {
				return "", false
			}
			return v[0].Payload, true
		}},
	{"stats",
		func(cc *Caches, i int, tag string) (string, bool) {
			v, won := cc.stats.put(skeyN(i), [][]openflow.PortStats{{{TxBytes: uint64(len(tag))}}})
			return fmt.Sprint(v[0][0].TxBytes), won
		},
		func(cc *Caches, i int) (string, bool) {
			v, ok := cc.stats.get(skeyN(i))
			if !ok {
				return "", false
			}
			return fmt.Sprint(v[0][0].TxBytes), true
		}},
	{"solutions",
		func(cc *Caches, i int, tag string) (string, bool) {
			v, won := cc.solutions.put(canon.Hash128(fmt.Sprint("problem-", i)), solution{model: sym.Assignment{tag: 1}, sat: true})
			return fmt.Sprint(v.model), won
		},
		func(cc *Caches, i int) (string, bool) {
			v, ok := cc.solutions.get(canon.Hash128(fmt.Sprint("problem-", i)))
			return fmt.Sprint(v.model), ok
		}},
}

// TestMemo holds the one memo implementation to its contract on all
// three instantiations: first writer wins and racing writers get the
// canonical value, a hit refreshes recency, the LRU bound evicts the
// least recently used entry whichever kind holds it, and Len, Evictions,
// cache.evictions and the cache-evict trace agree.
func TestMemo(t *testing.T) {
	for _, k := range memoKinds {
		t.Run(k.name, func(t *testing.T) {
			cc := NewCaches()
			first, won := k.put(cc, 0, "a")
			if !won {
				t.Fatal("first writer lost")
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if got, won := k.put(cc, 0, "late-writer"); won || got != first {
						t.Errorf("racing put = %q, won=%v; want the canonical %q", got, won, first)
					}
				}()
			}
			wg.Wait()
			if got, ok := k.get(cc, 0); !ok || got != first {
				t.Errorf("get = %q, %v; want %q", got, ok, first)
			}

			// A hit refreshes recency: 0 is older than 1 until it is read.
			cc.WithCapacity(2)
			k.put(cc, 1, "b")
			k.get(cc, 0)
			k.put(cc, 2, "c")
			if _, ok := k.get(cc, 1); ok {
				t.Error("entry 1 survived; the hit on 0 should have made 1 the LRU victim")
			}
			if _, ok := k.get(cc, 0); !ok {
				t.Error("entry 0 evicted despite the fresher hit")
			}

			// Capacity 1: every insert evicts its predecessor.
			cc.WithCapacity(1)
			k.put(cc, 3, "d")
			if _, ok := k.get(cc, 3); !ok || cc.Len() != 1 {
				t.Errorf("capacity 1: newest entry present=%v, Len=%d", ok, cc.Len())
			}
		})
	}

	t.Run("across-kinds", func(t *testing.T) {
		reg := telemetry.New()
		cc := NewCaches().WithCapacity(len(memoKinds))
		cc.AttachTelemetry(reg)
		for i, k := range memoKinds {
			k.put(cc, i, "x")
		}
		// Each further insert, of whichever kind, must push out the
		// oldest survivor — which lives in a different memo every time.
		for i, k := range memoKinds {
			memoKinds[(i+1)%len(memoKinds)].put(cc, 100+i, "y")
			if _, ok := k.get(cc, i); ok {
				t.Errorf("%s entry %d survived insert %d; it was the LRU across kinds", k.name, i, i)
			}
		}
		for i := range memoKinds {
			if _, ok := memoKinds[(i+1)%len(memoKinds)].get(cc, 100+i); !ok {
				t.Errorf("newer entry %d evicted before the older ones", 100+i)
			}
		}
		cc.WithCapacity(1)

		want := int64(len(memoKinds) + len(memoKinds) - 1)
		snap := reg.Snapshot()
		var traced, shrink int64
		for _, ev := range snap.Trace {
			if ev.Kind == telemetry.TraceCacheEvict {
				traced += ev.N
				if ev.Note == "capacity" {
					shrink += ev.N
				}
			}
		}
		if cc.Len() != 1 || cc.Evictions() != want || snap.Counter("cache.evictions") != want || traced != want {
			t.Errorf("Len=%d Evictions=%d cache.evictions=%d traced=%d; want 1, %d, %d, %d",
				cc.Len(), cc.Evictions(), snap.Counter("cache.evictions"), traced, want, want, want)
		}
		if shrink != int64(len(memoKinds)-1) {
			t.Errorf("%d evictions traced with reason capacity, want %d", shrink, len(memoKinds)-1)
		}
	})
}

func TestCachesWithCapacityEvictsLRU(t *testing.T) {
	cc := NewCaches().WithCapacity(3)
	for i := 0; i < 3; i++ {
		cc.packets.put(pkeyN(i), []openflow.Header{{Payload: fmt.Sprintf("p%d", i)}})
	}
	if got := cc.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	// Touch key 0 so key 1 becomes the LRU victim.
	if _, ok := cc.packets.get(pkeyN(0)); !ok {
		t.Fatal("key 0 missing before eviction")
	}
	cc.packets.put(pkeyN(3), []openflow.Header{{Payload: "p3"}})
	if got := cc.Len(); got != 3 {
		t.Fatalf("Len after over-capacity insert = %d, want 3", got)
	}
	if _, ok := cc.packets.get(pkeyN(1)); ok {
		t.Error("key 1 survived eviction; want it dropped as LRU")
	}
	for _, keep := range []int{0, 2, 3} {
		if _, ok := cc.packets.get(pkeyN(keep)); !ok {
			t.Errorf("key %d evicted; want it retained", keep)
		}
	}
	if got := cc.Evictions(); got != 1 {
		t.Errorf("Evictions = %d, want 1", got)
	}
}

func TestCachesCapacitySpansBothMaps(t *testing.T) {
	cc := NewCaches().WithCapacity(4)
	for i := 0; i < 3; i++ {
		cc.packets.put(pkeyN(i), nil)
	}
	for i := 0; i < 3; i++ {
		cc.stats.put(skeyN(i), nil)
	}
	if got := cc.Len(); got != 4 {
		t.Fatalf("Len = %d, want capacity 4 across both maps", got)
	}
	// Shrinking the bound mid-life evicts immediately.
	cc.WithCapacity(2)
	if got := cc.Len(); got != 2 {
		t.Fatalf("Len after WithCapacity(2) = %d, want 2", got)
	}
	if got := cc.Evictions(); got != 4 {
		t.Errorf("Evictions = %d, want 4 (2 on insert + 2 on shrink)", got)
	}
	// Removing the bound stops eviction.
	cc.WithCapacity(0)
	for i := 10; i < 20; i++ {
		cc.packets.put(pkeyN(i), nil)
	}
	if got := cc.Len(); got != 12 {
		t.Fatalf("Len unbounded = %d, want 12", got)
	}
}

func TestCachesEvictionTelemetry(t *testing.T) {
	reg := telemetry.New()
	cc := NewCaches().WithCapacity(2)
	cc.AttachTelemetry(reg)
	for i := 0; i < 5; i++ {
		cc.packets.put(pkeyN(i), nil)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("cache.evictions"); got != 3 {
		t.Errorf("cache.evictions = %d, want 3", got)
	}
	if got := cc.Evictions(); got != 3 {
		t.Errorf("Evictions() = %d, want 3", got)
	}
}

// TestCachesConcurrentChurnAndPrune pins the satellite contract: LRU
// eviction and WithCapacity flips (shrink, widen) are safe concurrently
// with running lookups/inserts (the multi-tenant service shares one
// memo across jobs). Run under -race in CI.
func TestCachesConcurrentChurnAndPrune(t *testing.T) {
	cc := NewCaches().WithCapacity(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := pkeyN(g*10000 + i%300)
				if _, ok := cc.packets.get(k); !ok {
					cc.packets.put(k, []openflow.Header{{Payload: "x"}})
				}
				sk := skeyN(g*10000 + i%100)
				if _, ok := cc.stats.get(sk); !ok {
					cc.stats.put(sk, nil)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			cc.WithCapacity(32)
			cc.WithCapacity(64)
			cc.Len()
			cc.Evictions()
		}
	}()
	wg.Wait()
	if got := cc.Len(); got > 64 {
		t.Errorf("Len after churn = %d, want <= capacity 64", got)
	}
	if cc.Evictions() == 0 {
		t.Error("expected evictions during churn")
	}
}

// TestCachesSearchSurvivesEviction runs a real SE-enabled search
// against a pathologically tiny cache bound: the search must still
// terminate with the same outcome as an unbounded run, even though
// entries are evicted mid-search and discovery re-runs.
func TestCachesSearchSurvivesEviction(t *testing.T) {
	build := func() *Config {
		t2, aID, bID := topo.SingleSwitch()
		ping := openflow.Header{EthSrc: topo.MACHostA, EthDst: topo.MACHostB,
			EthType: openflow.EthTypeIPv4, Payload: "ping"}
		a := hosts.NewClient(t2.Host(aID), 2, 0, ping)
		b := hosts.NewServer(t2.Host(bID), hosts.EchoReply, 1)
		return &Config{Topo: t2, App: newLearnApp(), Hosts: []*hosts.Host{a, b}}
	}
	tiny := NewCaches().WithCapacity(1)
	r := NewCheckerWith(build(), tiny).Run()
	full := NewChecker(build()).Run()
	if len(r.Violations) != len(full.Violations) {
		t.Errorf("violations with capacity-1 cache = %d, want %d",
			len(r.Violations), len(full.Violations))
	}
	if r.UniqueStates < full.UniqueStates {
		t.Errorf("bounded-cache search reached %d states, full search %d — eviction may cost revisits but never coverage",
			r.UniqueStates, full.UniqueStates)
	}
	if tiny.Len() > 1 {
		t.Errorf("cache Len = %d, want <= 1", tiny.Len())
	}
	if tiny.Evictions() == 0 {
		t.Error("expected mid-search evictions with capacity 1")
	}
}
