package serve

import (
	"sort"
	"sync"
	"sync/atomic"

	"f3m/internal/fingerprint"
	"f3m/internal/ir"
	"f3m/internal/lsh"
)

// StoreConfig fixes the similarity store's shape: the shard count and
// the fingerprint/banding parameters shared by every function it will
// ever hold (fingerprints from different parameter sets are not
// comparable, so these are immutable for the store's lifetime and are
// recorded in snapshots).
type StoreConfig struct {
	// Shards is the number of independently locked index shards.
	// Zero means DefaultShards.
	Shards int

	// K is the MinHash fingerprint size (0 = 200, the paper default).
	K int

	// ShingleSize is the encoding window (0 = 2).
	ShingleSize int

	// Seed selects the MinHash hash family (0 = the pipeline default).
	Seed uint64

	// Rows and Bands are the LSH banding shape (0 = r=2, b=K/r).
	Rows, Bands int

	// BucketCap caps per-bucket comparisons per query; 0 = the LSH
	// default, negative = unlimited.
	BucketCap int
}

// DefaultShards is the shard count used when StoreConfig.Shards is 0.
const DefaultShards = 8

// withDefaults resolves zero fields to their defaults.
func (c StoreConfig) withDefaults() StoreConfig {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.K == 0 {
		c.K = 200
	}
	if c.ShingleSize == 0 {
		c.ShingleSize = 2
	}
	if c.Seed == 0 {
		c.Seed = 0xF3F3F3F3
	}
	if c.Rows == 0 {
		c.Rows = 2
	}
	if c.Bands == 0 {
		c.Bands = c.K / c.Rows
	}
	return c
}

// FuncRecord is one indexed function: its global id, owning module,
// function name and MinHash signature (over the stable encoding).
type FuncRecord struct {
	ID           int64
	Module, Func string
	Sig          fingerprint.MinHash
}

// Match is one query result.
type Match struct {
	// Module and Func name the matching indexed function.
	Module string `json:"module"`
	Func   string `json:"func"`

	// Similarity is the MinHash Jaccard estimate against the probe.
	Similarity float64 `json:"similarity"`
}

// StoreStats is a point-in-time aggregate over all shards.
type StoreStats struct {
	// Funcs is the number of live indexed functions.
	Funcs int

	// Epoch is the mutation counter (see Store.Epoch).
	Epoch uint64

	// LSH sums the per-shard index counters.
	LSH lsh.IndexStats
}

// shard is one lock domain: an LSH index plus the records inserted
// into it, keyed by shard-local id. Writers (insert, remove) hold mu
// exclusively; readers query through lsh.PeekCandidates, which is
// documented safe for any number of concurrent calls as long as no
// mutation runs — exactly what the RLock guarantees. Peek leaves the
// index's counters alone, so readers add the comparisons it reports
// to the shard's own atomic counter instead.
type shard struct {
	mu          sync.RWMutex
	ix          *lsh.Index
	recs        map[int64]*FuncRecord
	comparisons atomic.Int64
}

// Store is the sharded, concurrently readable similarity store: the
// long-lived "LSH database" the serving layer exposes. Function ids are
// allocated from one atomic counter; id i lives in shard i%S under
// shard-local id i/S, so each shard's dense LSH id space stays compact.
//
// Concurrency contract: Query may run from any number of goroutines
// concurrently with itself and with Insert/Remove (per-shard RWMutexes
// serialize conflicting access; non-conflicting shards proceed in
// parallel). Cross-shard queries are not a consistent snapshot — a
// concurrent insert may be visible in one shard and not yet in another
// — which is the documented eventual-consistency model of the service.
type Store struct {
	cfg    StoreConfig
	mh     *fingerprint.Config
	shards []*shard
	nextID atomic.Int64
	epoch  atomic.Uint64
}

// NewStore returns an empty store with the given configuration
// (zero fields resolve to defaults).
func NewStore(cfg StoreConfig) *Store {
	cfg = cfg.withDefaults()
	s := &Store{
		cfg: cfg,
		mh:  (&fingerprint.Config{K: cfg.K, ShingleSize: cfg.ShingleSize, Seed: cfg.Seed}).Prepare(),
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, &shard{
			ix:   lsh.NewIndex(lsh.Params{Rows: cfg.Rows, Bands: cfg.Bands, BucketCap: cfg.BucketCap}),
			recs: make(map[int64]*FuncRecord),
		})
	}
	return s
}

// Config returns the resolved store configuration.
func (s *Store) Config() StoreConfig { return s.cfg }

// Fingerprint computes f's MinHash signature over the stable
// (context-independent) instruction encoding. Pure; needs no lock.
func (s *Store) Fingerprint(f *ir.Function) fingerprint.MinHash {
	return s.mh.New(fingerprint.EncodeFuncStable(f))
}

// shardOf maps a global id to its shard and shard-local id.
func (s *Store) shardOf(id int64) (*shard, int64) {
	n := int64(len(s.shards))
	return s.shards[id%n], id / n
}

// Insert indexes sig under a freshly allocated id and returns the
// record. Safe for concurrent use.
func (s *Store) Insert(module, fn string, sig fingerprint.MinHash) *FuncRecord {
	return s.insertAt(s.nextID.Add(1)-1, module, fn, sig)
}

// insertAt indexes sig under an explicit global id — the restore path,
// which replays a snapshot's records in ascending id order so shard
// state is rebuilt deterministically. Callers other than restore must
// go through Insert.
func (s *Store) insertAt(id int64, module, fn string, sig fingerprint.MinHash) *FuncRecord {
	rec := &FuncRecord{ID: id, Module: module, Func: fn, Sig: sig}
	sh, local := s.shardOf(id)
	sh.mu.Lock()
	sh.ix.Insert(int(local), sig)
	sh.recs[local] = rec
	sh.mu.Unlock()
	s.epoch.Add(1)
	return rec
}

// Remove unindexes a previously inserted record. Safe for concurrent
// use; removing a record twice is a no-op for the index but must be
// avoided (the LSH index removes by id+signature).
func (s *Store) Remove(rec *FuncRecord) {
	sh, local := s.shardOf(rec.ID)
	sh.mu.Lock()
	if _, live := sh.recs[local]; live {
		sh.ix.Remove(int(local), rec.Sig)
		delete(sh.recs, local)
	}
	sh.mu.Unlock()
	s.epoch.Add(1)
}

// Query returns up to k indexed functions whose signature shares at
// least one LSH bucket with sig and whose similarity reaches minSim,
// ordered by similarity (descending) with ties broken by module then
// function name, so results do not depend on insertion order.
// excludeID removes one record (typically the probe itself) from the
// results; pass a negative id to exclude nothing. k <= 0 means
// unlimited. Safe for any number of concurrent callers.
func (s *Store) Query(sig fingerprint.MinHash, minSim float64, k int, excludeID int64) []Match {
	var out []Match
	for _, sh := range s.shards {
		sh.mu.RLock()
		accept := func(local int) bool {
			rec := sh.recs[int64(local)]
			return rec != nil && rec.ID != excludeID
		}
		// Per-shard k: the global cut happens after the sort below.
		cands, compared := sh.ix.PeekCandidates(-1, sig, minSim, accept, k)
		sh.comparisons.Add(compared)
		for _, c := range cands {
			rec := sh.recs[int64(c.ID)]
			if rec == nil {
				continue
			}
			out = append(out, Match{Module: rec.Module, Func: rec.Func, Similarity: c.Similarity})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Similarity != b.Similarity {
			return a.Similarity > b.Similarity
		}
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		return a.Func < b.Func
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Epoch returns the store's mutation counter: it increments on every
// insert and removal, so two equal epochs observed around a read prove
// the read saw a quiescent store. Advisory — cross-shard reads are
// still only eventually consistent while mutations are in flight.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// Stats aggregates live-function counts and LSH counters across
// shards. It takes each shard's read lock in turn, so the totals are
// per-shard consistent but not a cross-shard snapshot.
func (s *Store) Stats() StoreStats {
	var st StoreStats
	st.Epoch = s.Epoch()
	for _, sh := range s.shards {
		sh.mu.RLock()
		st.Funcs += len(sh.recs)
		ls := sh.ix.Stats()
		sh.mu.RUnlock()
		st.LSH.Inserted += ls.Inserted
		st.LSH.BucketsUsed += ls.BucketsUsed
		if ls.MaxBucketLoad > st.LSH.MaxBucketLoad {
			st.LSH.MaxBucketLoad = ls.MaxBucketLoad
		}
		st.LSH.Comparisons += sh.comparisons.Load()
		st.LSH.CapSkips += ls.CapSkips
		st.LSH.CandidatesFound += ls.CandidatesFound
	}
	return st
}
