package plcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparta/internal/membudget"
	"sparta/internal/model"
)

func block(n int, seed int) []model.Posting {
	out := make([]model.Posting, n)
	for i := range out {
		out[i] = model.Posting{Doc: model.DocID(seed + i), Score: model.Score(seed * (i + 1))}
	}
	return out
}

// admit puts post under k twice: the first Put is only remembered by
// two-touch admission, the second is cached.
func admit(c *Cache, k Key, post []model.Posting) {
	c.Put(k, post)
	c.Put(k, post)
}

func TestGetPutRoundTrip(t *testing.T) {
	c := NewWithBudget(1 << 20)
	k := Key{Term: 3, Kind: KindDoc, Block: 7}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	admit(c, k, block(64, 1))
	got, ok := c.Get(k)
	if !ok || len(got) != 64 || got[0].Doc != 1 {
		t.Fatalf("Get = %v postings, ok=%v", len(got), ok)
	}
	st := c.Snapshot()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 insert", st)
	}
}

func TestKindsDoNotCollide(t *testing.T) {
	c := NewWithBudget(1 << 20)
	admit(c, Key{Term: 1, Kind: KindDoc, Block: 0}, block(4, 10))
	admit(c, Key{Term: 1, Kind: KindImpact, Block: 0}, block(4, 20))
	for _, tc := range []struct {
		kind Kind
		doc  model.DocID
	}{{KindDoc, 10}, {KindImpact, 20}} {
		got, ok := c.Get(Key{Term: 1, Kind: tc.kind, Block: 0})
		if !ok || got[0].Doc != tc.doc {
			t.Errorf("kind %d: got %v ok=%v, want doc %d", tc.kind, got, ok, tc.doc)
		}
	}
}

func TestPutCopiesCallerSlice(t *testing.T) {
	c := NewWithBudget(1 << 20)
	mine := block(8, 5)
	k := Key{Term: 2, Kind: KindDoc, Block: 0}
	admit(c, k, mine)
	mine[0].Doc = 999 // caller reuses its buffer (e.g. returns it to a pool)
	got, _ := c.Get(k)
	if got[0].Doc == 999 {
		t.Error("cache aliases the caller's buffer")
	}
}

func TestBudgetNeverExceeded(t *testing.T) {
	limit := int64(10 * 1024)
	b := membudget.New(limit)
	c := newCache(b, 4)
	for i := 0; i < 1000; i++ {
		admit(c, Key{Term: model.TermID(i), Kind: KindDoc, Block: 0}, block(64, i))
		if used := b.Used(); used > limit {
			t.Fatalf("budget used %d exceeds limit %d", used, limit)
		}
		if bytes := c.Snapshot().Bytes; bytes > limit {
			t.Fatalf("cache holds %d bytes, limit %d", bytes, limit)
		}
	}
	st := c.Snapshot()
	if st.Evictions == 0 {
		t.Error("expected evictions under a tight budget")
	}
	if st.Bytes != b.Used() {
		t.Errorf("cache bytes %d != budget used %d", st.Bytes, b.Used())
	}
	c.Flush()
	if b.Used() != 0 || c.Snapshot().Bytes != 0 || c.Snapshot().Entries != 0 {
		t.Errorf("after Flush: used=%d stats=%+v", b.Used(), c.Snapshot())
	}
}

func TestOversizedBlockNotCached(t *testing.T) {
	c := NewWithBudget(64) // smaller than any block
	admit(c, Key{Term: 1, Kind: KindDoc, Block: 0}, block(64, 1))
	if _, ok := c.Get(Key{Term: 1, Kind: KindDoc, Block: 0}); ok {
		t.Error("oversized block was cached")
	}
	if used := c.Budget().Used(); used != 0 {
		t.Errorf("failed insert leaked %d budget bytes", used)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Single stripe so recency is globally ordered; room for ~2 blocks.
	b := membudget.New(2 * entryBytes(64))
	c := newCache(b, 1)
	k := func(i int) Key { return Key{Term: model.TermID(i), Kind: KindDoc, Block: 0} }
	admit(c, k(1), block(64, 1))
	admit(c, k(2), block(64, 2))
	c.Get(k(1)) // 1 most recent
	admit(c, k(3), block(64, 3))
	if _, ok := c.Get(k(2)); ok {
		t.Error("LRU entry 2 should have been evicted")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Error("recently-used entry 1 was evicted")
	}
	if _, ok := c.Get(k(3)); !ok {
		t.Error("new entry 3 missing")
	}
}

func TestDuplicatePutKeepsFirst(t *testing.T) {
	c := NewWithBudget(1 << 20)
	k := Key{Term: 9, Kind: KindImpact, Block: 2}
	admit(c, k, block(4, 1))
	c.Put(k, block(4, 2))
	got, _ := c.Get(k)
	if got[0].Doc != 1 {
		t.Error("duplicate Put replaced the existing entry")
	}
	if st := c.Snapshot(); st.Inserts != 1 {
		t.Errorf("inserts = %d, want 1", st.Inserts)
	}
}

func TestConcurrentAccessRace(t *testing.T) {
	b := membudget.New(64 * 1024)
	c := newCache(b, cacheStripes)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := Key{Term: model.TermID((i*7 + g) % 97), Kind: KindDoc, Block: int32(i % 3)}
				if _, ok := c.Get(k); !ok {
					c.Put(k, block(64, int(k.Term)))
				}
			}
		}(g)
	}
	wg.Wait()
	if used, limit := b.Used(), b.Limit(); used > limit {
		t.Errorf("budget used %d > limit %d", used, limit)
	}
	st := c.Snapshot()
	if st.Bytes != b.Used() {
		t.Errorf("bytes gauge %d != budget used %d", st.Bytes, b.Used())
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("empty HitRate should be 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", s.HitRate())
	}
}

func BenchmarkGetHit(b *testing.B) {
	c := NewWithBudget(1 << 24)
	keys := make([]Key, 256)
	for i := range keys {
		keys[i] = Key{Term: model.TermID(i), Kind: KindDoc, Block: 0}
		admit(c, keys[i], block(64, i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}

func ExampleCache() {
	c := NewWithBudget(16 << 20) // 16 MB of decoded blocks
	k := Key{Term: 42, Kind: KindDoc, Block: 0}
	// Two-touch admission: the first decode is only remembered, the
	// second is cached.
	for i := 0; i < 2; i++ {
		if _, ok := c.Get(k); !ok {
			c.Put(k, []model.Posting{{Doc: 1, Score: 100}})
		}
	}
	post, _ := c.Get(k)
	fmt.Println(len(post), c.Snapshot().Hits)
	// Output: 1 1
}

func TestTwoTouchAdmission(t *testing.T) {
	c := NewWithBudget(1 << 20)
	k := Key{Term: 5, Kind: KindDoc, Block: 1}
	c.Put(k, block(8, 1))
	if _, ok := c.Get(k); ok {
		t.Fatal("block admitted on first touch")
	}
	if st := c.Snapshot(); st.AdmissionRejects != 1 || st.Inserts != 0 {
		t.Fatalf("after first Put: %+v, want 1 admission reject, 0 inserts", st)
	}
	c.Put(k, block(8, 1))
	if _, ok := c.Get(k); !ok {
		t.Fatal("block not admitted on second touch")
	}
	if st := c.Snapshot(); st.AdmissionRejects != 1 || st.Inserts != 1 {
		t.Fatalf("after second Put: %+v, want 1 admission reject, 1 insert", st)
	}
}

func TestTwoTouchScanResistance(t *testing.T) {
	// A hot working set that fits the budget, then a cold scan of many
	// distinct blocks: with two-touch admission the scan must not evict
	// any hot block.
	b := membudget.New(16 * entryBytes(64))
	c := newCache(b, 1)
	hot := make([]Key, 8)
	for i := range hot {
		hot[i] = Key{Term: model.TermID(i), Kind: KindDoc, Block: 0}
		c.Put(hot[i], block(64, i)) // remembered
		c.Put(hot[i], block(64, i)) // admitted
	}
	for i := 0; i < 2000; i++ {
		c.Put(Key{Term: model.TermID(1000 + i), Kind: KindDoc, Block: 0}, block(64, i))
	}
	for _, k := range hot {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("cold scan evicted hot block %v", k)
		}
	}
	if st := c.Snapshot(); st.AdmissionRejects < 2000 {
		t.Fatalf("scan admission rejects = %d, want >= 2000", st.AdmissionRejects)
	}
}

func TestGhostRingForgetsOldKeys(t *testing.T) {
	c := newCache(membudget.New(1<<20), 1)
	k := Key{Term: 1, Kind: KindDoc, Block: 0}
	c.Put(k, block(4, 1)) // remembered
	// Push more than ghostKeys distinct keys through the stripe so k's
	// ghost entry ages out.
	for i := 0; i < ghostKeys+8; i++ {
		c.Put(Key{Term: model.TermID(100 + i), Kind: KindDoc, Block: 0}, block(4, i))
	}
	c.Put(k, block(4, 1)) // first touch again, not second
	if _, ok := c.Get(k); ok {
		t.Fatal("aged-out ghost key was still admitted")
	}
}

func TestAttachedMarker(t *testing.T) {
	c := NewWithBudget(1 << 20)
	if c.Attached() {
		t.Fatal("fresh cache reports attached")
	}
	c.MarkAttached()
	if !c.Attached() {
		t.Fatal("MarkAttached did not stick")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func TestGetOrFillSingleFlight(t *testing.T) {
	c := NewWithBudget(1 << 20)
	k := Key{Term: 9, Kind: KindDoc, Block: 3}
	var fillCalls atomic.Int64
	release := make(chan struct{})

	// Leader: the fill blocks until released, holding the in-flight slot.
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		post, filled, err := c.GetOrFill(k, func() ([]model.Posting, error) {
			fillCalls.Add(1)
			<-release
			return block(16, 40), nil
		})
		if err != nil || !filled || len(post) != 16 {
			t.Errorf("leader: filled=%v len=%d err=%v", filled, len(post), err)
		}
	}()
	waitFor(t, "fill to start", func() bool { return c.Snapshot().InFlightFills == 1 })

	// Waiter: a concurrent miss on the same key joins the fill instead of
	// charging a second decode. The suppression counter moves before the
	// waiter blocks, so the test can release the leader deterministically.
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		post, filled, err := c.GetOrFill(k, func() ([]model.Posting, error) {
			fillCalls.Add(1)
			return block(16, 40), nil
		})
		if err != nil || filled || len(post) != 16 {
			t.Errorf("waiter: filled=%v len=%d err=%v", filled, len(post), err)
		}
	}()
	waitFor(t, "waiter to register", func() bool { return c.Snapshot().DupFillsSuppressed == 1 })

	close(release)
	<-leaderDone
	<-waiterDone

	if n := fillCalls.Load(); n != 1 {
		t.Fatalf("fill ran %d times, want 1", n)
	}
	st := c.Snapshot()
	if st.DupFillsSuppressed != 1 || st.InFlightFills != 0 {
		t.Fatalf("stats = %+v, want 1 suppressed dup, 0 in flight", st)
	}
	// The waiter's join counts as a hit, not a second miss.
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("misses=%d hits=%d, want 1 and 1", st.Misses, st.Hits)
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("filled block not cached")
	}
}

func TestGetOrFillErrorDoesNotCache(t *testing.T) {
	c := NewWithBudget(1 << 20)
	k := Key{Term: 5, Kind: KindImpact, Block: 0}
	boom := fmt.Errorf("disk on fire")
	if _, _, err := c.GetOrFill(k, func() ([]model.Posting, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("failed fill was cached")
	}
	if st := c.Snapshot(); st.InFlightFills != 0 {
		t.Fatalf("in-flight fills = %d after failed fill, want 0", st.InFlightFills)
	}
	// The key is fillable again after the failure.
	post, filled, err := c.GetOrFill(k, func() ([]model.Posting, error) { return block(8, 2), nil })
	if err != nil || !filled || len(post) != 8 {
		t.Fatalf("retry: filled=%v len=%d err=%v", filled, len(post), err)
	}
}

func TestGetOrFillPanicUnblocksWaiters(t *testing.T) {
	c := NewWithBudget(1 << 20)
	k := Key{Term: 6, Kind: KindDoc, Block: 1}
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.GetOrFill(k, func() ([]model.Posting, error) {
			close(entered)
			<-release
			panic("corrupt block")
		})
	}()
	<-entered
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrFill(k, func() ([]model.Posting, error) { return block(4, 1), nil })
		waiterDone <- err
	}()
	waitFor(t, "waiter to register", func() bool { return c.Snapshot().DupFillsSuppressed == 1 })
	close(release)
	if err := <-waiterDone; err == nil {
		t.Fatal("waiter of a panicking fill got nil error")
	}
	if st := c.Snapshot(); st.InFlightFills != 0 {
		t.Fatalf("in-flight fills = %d after panic, want 0", st.InFlightFills)
	}
}

func TestGetOrFillHotBypassesTwoTouch(t *testing.T) {
	c := NewWithBudget(1 << 20) // two-touch admission
	k := Key{Term: 7, Kind: KindDoc, Block: 0}
	if _, filled, err := c.GetOrFillHot(k, func() ([]model.Posting, error) { return block(4, 3), nil }); err != nil || !filled {
		t.Fatalf("filled=%v err=%v", filled, err)
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("hot fill was not admitted on first touch")
	}
	// Plain GetOrFill on a two-touch cache is NOT admitted first touch...
	k2 := Key{Term: 8, Kind: KindDoc, Block: 0}
	c.GetOrFill(k2, func() ([]model.Posting, error) { return block(4, 3), nil })
	if _, ok := c.Get(k2); ok {
		t.Fatal("cold fill bypassed two-touch admission")
	}
	// ...but is on the second.
	c.GetOrFill(k2, func() ([]model.Posting, error) { return block(4, 3), nil })
	if _, ok := c.Get(k2); !ok {
		t.Fatal("second fill not admitted")
	}
}

func TestGetOrFillManyConcurrentMissesChargeOnce(t *testing.T) {
	c := NewWithBudget(1 << 20)
	k := Key{Term: 13, Kind: KindDoc, Block: 0}
	var fillCalls atomic.Int64
	release := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	leaderIn := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.GetOrFill(k, func() ([]model.Posting, error) {
			fillCalls.Add(1)
			close(leaderIn)
			<-release
			return block(4, 1), nil
		})
	}()
	<-leaderIn
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post, _, err := c.GetOrFill(k, func() ([]model.Posting, error) {
				fillCalls.Add(1)
				return block(4, 1), nil
			})
			if err != nil || len(post) != 4 {
				t.Errorf("waiter: len=%d err=%v", len(post), err)
			}
		}()
	}
	waitFor(t, "all waiters to register", func() bool {
		return c.Snapshot().DupFillsSuppressed == waiters
	})
	close(release)
	wg.Wait()
	if n := fillCalls.Load(); n != 1 {
		t.Fatalf("fill ran %d times for %d concurrent misses, want 1", n, waiters+1)
	}
}
