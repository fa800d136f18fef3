package iomodel

import (
	"context"
	"sync"
	"testing"
	"time"
)

func testConfig(cacheBlocks int) Config {
	return Config{
		BlockSize:   64,
		CacheBlocks: cacheBlocks,
		SeqLatency:  time.Microsecond,
		RandLatency: 10 * time.Microsecond,
		SleepBatch:  time.Millisecond,
		NoSleep:     true,
	}
}

// newStoreWithFile builds a store whose page cache is one exact LRU
// (one stripe), so eviction order is global, and gives it one file.
func newStoreWithFile(cfg Config, size int) (*Store, int) {
	s := newStore(cfg, 1)
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	h := s.AddFile("f", data)
	return s, h
}

func TestViewReturnsCorrectBytes(t *testing.T) {
	s, h := newStoreWithFile(testConfig(8), 1000)
	r := s.NewReader(h)
	got := r.View(100, 10)
	for i, b := range got {
		if b != byte(100+i) {
			t.Fatalf("byte %d = %d, want %d", i, b, byte(100+i))
		}
	}
}

func TestViewOutOfRangePanics(t *testing.T) {
	s, h := newStoreWithFile(testConfig(8), 100)
	r := s.NewReader(h)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range View did not panic")
		}
	}()
	r.View(90, 20)
}

func TestSequentialVsRandomClassification(t *testing.T) {
	s, h := newStoreWithFile(testConfig(100), 64*20)
	r := s.NewReader(h)
	// First read of block 5 is random (no predecessor).
	r.View(5*64, 1)
	// Block 6 follows block 5: sequential.
	r.View(6*64, 1)
	// Jump to block 10: random.
	r.View(10*64, 1)
	st := s.Snapshot()
	if st.RandReads != 2 || st.SeqReads != 1 {
		t.Errorf("rand=%d seq=%d, want 2/1", st.RandReads, st.SeqReads)
	}
}

func TestSameBlockRepeatIsFree(t *testing.T) {
	s, h := newStoreWithFile(testConfig(100), 640)
	r := s.NewReader(h)
	for i := 0; i < 64; i++ {
		r.View(int64(i), 1) // all within block 0
	}
	st := s.Snapshot()
	if st.BlocksRead != 1 {
		t.Errorf("BlocksRead = %d, want 1", st.BlocksRead)
	}
	if st.CacheHits != 0 {
		t.Errorf("CacheHits = %d, want 0 (same-block repeats are not counted)", st.CacheHits)
	}
}

func TestCacheHitAfterOtherReader(t *testing.T) {
	s, h := newStoreWithFile(testConfig(100), 640)
	r1 := s.NewReader(h)
	r1.View(0, 64)
	r2 := s.NewReader(h)
	r2.View(0, 64)
	st := s.Snapshot()
	if st.BlocksRead != 1 || st.CacheHits != 1 {
		t.Errorf("reads=%d hits=%d, want 1/1", st.BlocksRead, st.CacheHits)
	}
}

func TestLRUEviction(t *testing.T) {
	s, h := newStoreWithFile(testConfig(2), 64*10)
	r := s.NewReader(h)
	r.View(0*64, 1) // cache: {0}
	r.View(1*64, 1) // cache: {0,1}
	r.View(2*64, 1) // evicts 0 -> {1,2}
	r2 := s.NewReader(h)
	r2.View(1*64, 1) // hit
	r2.View(0*64, 1) // miss (evicted)
	st := s.Snapshot()
	if st.CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1", st.CacheHits)
	}
	if st.BlocksRead != 4 {
		t.Errorf("BlocksRead = %d, want 4", st.BlocksRead)
	}
	if s.CacheLen() != 2 {
		t.Errorf("CacheLen = %d, want 2", s.CacheLen())
	}
}

func TestLRURecencyUpdatedOnHit(t *testing.T) {
	s, h := newStoreWithFile(testConfig(2), 64*10)
	r := s.NewReader(h)
	r.View(0*64, 1) // {0}
	r.View(1*64, 1) // {0,1}
	r2 := s.NewReader(h)
	r2.View(0*64, 1) // hit; 0 becomes most recent
	r.View(2*64, 1)  // evicts 1, not 0
	r3 := s.NewReader(h)
	r3.View(0*64, 1) // should still hit
	st := s.Snapshot()
	if st.CacheHits != 2 {
		t.Errorf("CacheHits = %d, want 2 (LRU recency not updated on hit?)", st.CacheHits)
	}
}

func TestFlushEmptiesCache(t *testing.T) {
	s, h := newStoreWithFile(testConfig(100), 640)
	s.NewReader(h).View(0, 640)
	if s.CacheLen() == 0 {
		t.Fatal("cache empty after reads")
	}
	s.Flush()
	if s.CacheLen() != 0 {
		t.Errorf("CacheLen after Flush = %d", s.CacheLen())
	}
	before := s.Snapshot().BlocksRead
	s.NewReader(h).View(0, 64)
	if s.Snapshot().BlocksRead != before+1 {
		t.Error("read after Flush should miss")
	}
}

func TestSimulatedIOAccounting(t *testing.T) {
	cfg := testConfig(100)
	s, h := newStoreWithFile(cfg, 64*10)
	r := s.NewReader(h)
	r.View(0, 64*3) // blocks 0,1,2: first random, then two sequential
	st := s.Snapshot()
	want := cfg.RandLatency + 2*cfg.SeqLatency
	if st.SimulatedIO != want {
		t.Errorf("SimulatedIO = %v, want %v", st.SimulatedIO, want)
	}
}

func TestResetStats(t *testing.T) {
	s, h := newStoreWithFile(testConfig(100), 640)
	s.NewReader(h).View(0, 640)
	s.ResetStats()
	st := s.Snapshot()
	if st.BlocksRead != 0 || st.SimulatedIO != 0 || st.CacheHits != 0 {
		t.Errorf("stats not reset: %+v", st)
	}
}

func TestMultiFileBlocksDistinct(t *testing.T) {
	s := NewStore(testConfig(100))
	h1 := s.AddFile("a", make([]byte, 640))
	h2 := s.AddFile("b", make([]byte, 640))
	s.NewReader(h1).View(0, 1)
	s.NewReader(h2).View(0, 1)
	if st := s.Snapshot(); st.BlocksRead != 2 {
		t.Errorf("same block id in different files collided: reads=%d", st.BlocksRead)
	}
}

func TestLookup(t *testing.T) {
	s := NewStore(testConfig(10))
	h := s.AddFile("postings.bin", make([]byte, 10))
	got, err := s.Lookup("postings.bin")
	if err != nil || got != h {
		t.Errorf("Lookup = %d, %v", got, err)
	}
	if _, err := s.Lookup("nope"); err == nil {
		t.Error("Lookup of missing file should error")
	}
}

func TestConcurrentReadersRace(t *testing.T) {
	// Exercises the shared cache under concurrency; run with -race.
	s, h := newStoreWithFile(testConfig(16), 64*256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := s.NewReader(h)
			for i := 0; i < 500; i++ {
				off := int64(((i * 37) + g*13) % 255 * 64)
				r.View(off, 64)
			}
		}(g)
	}
	wg.Wait()
	st := s.Snapshot()
	if st.BlocksRead+st.CacheHits == 0 {
		t.Error("no activity recorded")
	}
}

func TestRealSleepCharges(t *testing.T) {
	cfg := Config{
		BlockSize:   64,
		CacheBlocks: 100,
		SeqLatency:  200 * time.Microsecond,
		RandLatency: 200 * time.Microsecond,
		SleepBatch:  100 * time.Microsecond, // pay immediately
	}
	s, h := newStoreWithFile(cfg, 64*20)
	r := s.NewReader(h)
	start := time.Now()
	r.View(0, 64*10) // 10 blocks -> >= 2ms charged
	r.Settle()
	if elapsed := time.Since(start); elapsed < 1500*time.Microsecond {
		t.Errorf("elapsed %v, want >= ~2ms of simulated I/O", elapsed)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	c := DefaultConfig()
	if c.RandLatency <= c.SeqLatency {
		t.Error("random reads must cost more than sequential")
	}
	if c.BlockSize <= 0 || c.CacheBlocks <= 0 {
		t.Error("default sizes must be positive")
	}
	r := RAMConfig()
	if !r.NoSleep {
		t.Error("RAM config must not sleep")
	}
}

func TestBindCancelCutsWaitsShort(t *testing.T) {
	// Real sleeps on, punishing latency: an unbound reader takes >= 50ms
	// to scan; a reader bound to a cancelled context returns promptly.
	cfg := Config{
		BlockSize:   64,
		CacheBlocks: 2,
		SeqLatency:  5 * time.Millisecond,
		RandLatency: 5 * time.Millisecond,
		SleepBatch:  time.Microsecond,
	}
	s, h := newStoreWithFile(cfg, 64*20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := s.NewReader(h)
	r.Bind(ctx, nil, nil)
	start := time.Now()
	for off := int64(0); off < 64*20; off += 64 {
		r.View(off, 64)
	}
	r.Settle()
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Errorf("cancelled reader took %v, want near-immediate return", elapsed)
	}
	// Charges are still counted: the blocks were "read".
	if st := s.Snapshot(); st.BlocksRead != 20 || st.SimulatedIO == 0 {
		t.Errorf("stats = %+v, want 20 charged reads", st)
	}
}

func TestBindUncancellableContextIsFree(t *testing.T) {
	s, h := newStoreWithFile(testConfig(8), 1000)
	r := s.NewReader(h)
	r.Bind(context.Background(), nil, nil)
	if r.ctx != nil {
		t.Error("binding an uncancellable context must not retain it")
	}
}

func TestBindOnFetchObservesCharges(t *testing.T) {
	s, h := newStoreWithFile(testConfig(8), 64*10)
	var fetches int
	var total time.Duration
	r := s.NewReader(h)
	r.Bind(nil, func(d time.Duration) { fetches++; total += d }, nil)
	for off := int64(0); off < 64*10; off += 64 {
		r.View(off, 64)
	}
	if fetches != 10 {
		t.Errorf("onFetch called %d times, want 10", fetches)
	}
	if want := s.Snapshot().SimulatedIO; total != want {
		t.Errorf("onFetch total %v, store charged %v", total, want)
	}
}

func TestBindOnStopFiresOnceWhenCutShort(t *testing.T) {
	st := NewStore(Config{BlockSize: 64, CacheBlocks: 1, SeqLatency: time.Millisecond,
		RandLatency: time.Millisecond, SleepBatch: time.Microsecond})
	h := st.AddFile("f", make([]byte, 64*16))
	r := st.NewReader(h)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stops := 0
	r.Bind(ctx, nil, func() { stops++ })
	for i := int64(0); i < 8; i++ {
		r.View(i*64, 64)
	}
	if stops != 1 {
		t.Errorf("onStop fired %d times, want exactly once", stops)
	}
}

func TestViewCallsCounted(t *testing.T) {
	s, h := newStoreWithFile(testConfig(100), 640)
	r := s.NewReader(h)
	r.View(0, 64)
	r.View(0, 64)
	r.View(64, 512)
	if st := s.Snapshot(); st.ViewCalls != 0 {
		t.Errorf("ViewCalls before Settle = %d, want 0 (counted per reader)", st.ViewCalls)
	}
	r.Settle() // flushes the reader-local count
	if st := s.Snapshot(); st.ViewCalls != 3 {
		t.Errorf("ViewCalls = %d, want 3", st.ViewCalls)
	}
	s.ResetStats()
	if st := s.Snapshot(); st.ViewCalls != 0 {
		t.Errorf("ViewCalls after reset = %d", st.ViewCalls)
	}
}

func TestSleepsCountPaidWaits(t *testing.T) {
	cfg := Config{
		BlockSize:   64,
		CacheBlocks: 100,
		SeqLatency:  time.Microsecond,
		RandLatency: time.Microsecond,
		SleepBatch:  time.Hour,
	}
	s, h := newStoreWithFile(cfg, 64*10)
	r := s.NewReader(h)
	r.View(0, 64*4) // owed, not paid
	if got := s.Snapshot().Sleeps; got != 0 {
		t.Errorf("Sleeps before Settle = %d, want 0", got)
	}
	r.Settle() // one wait pays all four
	r.Settle() // nothing owed: no wait
	if got := s.Snapshot().Sleeps; got != 1 {
		t.Errorf("Sleeps after Settle = %d, want 1", got)
	}
	cfg.SleepBatch = time.Nanosecond
	s2, h2 := newStoreWithFile(cfg, 64*10)
	s2.NewReader(h2).View(0, 64*4) // every block pays at once
	if got := s2.Snapshot().Sleeps; got != 4 {
		t.Errorf("Sleeps with immediate batches = %d, want 4", got)
	}
	s2.ResetStats()
	if got := s2.Snapshot().Sleeps; got != 0 {
		t.Errorf("Sleeps after reset = %d", got)
	}
}

func TestUnsettledTracksOwedCharges(t *testing.T) {
	// Sleeps enabled with an enormous batch, so charges accrue as owed
	// latency that only Settle pays.
	cfg := Config{
		BlockSize:   64,
		CacheBlocks: 100,
		SeqLatency:  time.Microsecond,
		RandLatency: time.Microsecond,
		SleepBatch:  time.Hour,
	}
	s, h := newStoreWithFile(cfg, 64*10)
	r := s.NewReader(h)
	r.View(0, 64*4) // 4 blocks charged, none paid
	if got, want := s.Unsettled(), 4*time.Microsecond; got != want {
		t.Errorf("Unsettled = %v, want %v", got, want)
	}
	r.Settle()
	if got := s.Unsettled(); got != 0 {
		t.Errorf("Unsettled after Settle = %v, want 0", got)
	}
	// A batch-paying reader keeps the balance at zero too.
	cfg.SleepBatch = time.Nanosecond
	s2, h2 := newStoreWithFile(cfg, 64*10)
	r2 := s2.NewReader(h2)
	r2.View(0, 64*4)
	if got := s2.Unsettled(); got != 0 {
		t.Errorf("Unsettled with immediate batches = %v, want 0", got)
	}
}

// TestPageCacheHoldsExactlyCacheBlocks: the striped page cache holds
// CacheBlocks blocks, not a multiple of its stripe count, at every
// size, over min(16, CacheBlocks) stripes.
func TestPageCacheHoldsExactlyCacheBlocks(t *testing.T) {
	for _, n := range []int{1, 4, 8, 100, 512, 4096} {
		cfg := testConfig(n)
		s := NewStore(cfg)
		blocks := 8*n + 64
		h := s.AddFile("f", make([]byte, blocks*cfg.BlockSize))
		r := s.NewReader(h)
		for b := 0; b < blocks; b++ {
			r.View(int64(b*cfg.BlockSize), 1)
		}
		r.Settle()
		if got := s.CacheLen(); got != n {
			t.Errorf("CacheBlocks %d: cache holds %d blocks", n, got)
		}
		if got, want := len(s.stripe), min(16, n); got != want {
			t.Errorf("CacheBlocks %d: %d stripes, want %d", n, got, want)
		}
	}
}
