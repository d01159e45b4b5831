package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

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
// three instantiations: first writer wins, racing writers get the
// canonical value, and Len and the lookup counters span all three.
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
			if _, ok := k.get(cc, 1); ok {
				t.Error("get of a key never put hit")
			}
		})
	}

	t.Run("across-kinds", func(t *testing.T) {
		reg := telemetry.New()
		cc := NewCaches()
		cc.AttachTelemetry(reg)
		for i, k := range memoKinds {
			k.put(cc, i, "x")
			k.get(cc, i)
			k.get(cc, 100+i)
		}
		if got := cc.Len(); got != len(memoKinds) {
			t.Errorf("Len = %d, want one entry per kind (%d)", got, len(memoKinds))
		}
		snap := reg.Snapshot()
		for _, prefix := range []string{"cache.packets_", "cache.stats_", "sym.memo_"} {
			if h, m := snap.Counter(prefix+"hits"), snap.Counter(prefix+"misses"); h != 1 || m != 1 {
				t.Errorf("%shits/misses = %d/%d, want 1/1", prefix, h, m)
			}
		}
		if hits, misses := cc.HitCounts(); hits != 2 || misses != 2 {
			t.Errorf("HitCounts = %d/%d, want the discover memos' 2/2", hits, misses)
		}
	})
}

// TestCachesConcurrentChurnAndPrune: lookups, inserts and Len are safe
// concurrently (the parallel engines and a campaign's concurrent jobs
// share one set), and a set never drops an entry it was given. Run
// under -race in CI.
func TestCachesConcurrentChurnAndPrune(t *testing.T) {
	cc := NewCaches()
	const goroutines, keys = 4, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				// Half the keys are shared between goroutines, so
				// racing first writers meet.
				k := pkeyN(g%2*10000 + i%keys)
				if _, ok := cc.packets.get(k); !ok {
					cc.packets.put(k, []openflow.Header{{Payload: "x"}})
				}
				sk := skeyN(g*10000 + i%100)
				if _, ok := cc.stats.get(sk); !ok {
					cc.stats.put(sk, nil)
				}
				if i%100 == 0 {
					cc.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := cc.Len(), 2*keys+goroutines*100; got != want {
		t.Errorf("Len after churn = %d, want every inserted key (%d)", got, want)
	}
}

// TestCachesDoNotPinRegistries: a long-lived set credits every registry
// it is attached to once, but keeps no reference that would stop a
// dropped per-search registry from being collected.
func TestCachesDoNotPinRegistries(t *testing.T) {
	cc := NewCaches()
	collected := make(chan struct{})
	func() {
		reg := telemetry.New()
		runtime.SetFinalizer(reg, func(*telemetry.Registry) { close(collected) })
		cc.AttachTelemetry(reg)
		cc.packets.get(pkeyN(0))
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(cc)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("a registry attached to a live cache set was never collected")
}

// TestStatsClassKeyMatchesFmt: the stats-class key, which orders the
// discovered classes, renders byte for byte as the fmt %v it replaced.
func TestStatsClassKeyMatchesFmt(t *testing.T) {
	for _, conc := range [][]openflow.PortStats{
		nil,
		{},
		{{Port: 1}},
		{{Port: 1, TxBytes: 1000}, {Port: 2, TxBytes: 18446744073709551615, RxBytes: 7}},
		{{Port: -3, TxBytes: 5}, {Port: 65535}, {Port: 4, RxBytes: 1 << 40}},
	} {
		if got, want := statsClassKey(conc), fmt.Sprintf("%v", conc); got != want {
			t.Errorf("statsClassKey = %q, fmt %q", got, want)
		}
	}
}
