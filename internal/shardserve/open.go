// Opening shards: partitioning a global in-memory index into per-shard
// disk-modeled indexes (FromIndex), and the on-disk layout written by
// cmd/shardbuild and reopened by OpenDir — a shards.json manifest next
// to one diskindex directory per shard.

package shardserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/merkle"
	"sparta/internal/model"
	"sparta/internal/plcache"
	"sparta/internal/postings"
)

// ManifestFile is the shard-set manifest written next to the per-shard
// index directories.
const ManifestFile = "shards.json"

// manifestVersion is the one shard-set manifest this build reads and
// writes: per-file SHA-256 digests and a per-shard Merkle root, which
// OpenDir and replica promotion verify before serving, over shard
// directories in diskindex.FormatVersion. Version 2 carried the same
// digests over the retired three-file shard layout; version 1 carried
// none.
const manifestVersion = 3

// Manifest describes a built shard set.
type Manifest struct {
	Version int             `json:"version"`
	NumDocs int             `json:"num_docs"`
	Shards  []ShardManifest `json:"shards"`
}

// ShardManifest describes one shard of the set.
type ShardManifest struct {
	Dir      string `json:"dir"`
	LoDoc    uint32 `json:"lo_doc"`
	HiDoc    uint32 `json:"hi_doc"`
	Postings int64  `json:"postings"`
	// Files are the shard's index files with their build-time SHA-256
	// digests; MerkleRoot folds them into one provable identity.
	Files      []merkle.FileDigest `json:"files"`
	MerkleRoot string              `json:"merkle_root"`
}

// FromIndex partitions x into p document-range shards and serves them
// with factory's algorithm — the one-call path tests and
// single-process experiments use. Each shard is built once and reopened
// per further replica (cfg.Replicas, default 1; diskindex.Reopen over
// the shared directory and bytes), every replica getting its own
// independently charged store (cfg.IO, default iomodel.DefaultConfig)
// and, when cfg.CacheBytes is positive, its own decoded-block cache,
// attached at open time.
func FromIndex(x *index.Index, p int, factory Factory, cfg Config) (*Group, error) {
	if p <= 0 {
		return nil, fmt.Errorf("shardserve: shard count must be positive, got %d", p)
	}
	io := cfg.io()
	shards := make([]Shard, p)
	for s, part := range x.Partition(p) {
		di, err := diskindex.FromIndex(part, diskindex.DefaultShards, io)
		if err != nil {
			return nil, fmt.Errorf("shardserve: opening shard %d: %w", s, err)
		}
		lo, hi := postings.ShardRange(x.NumDocs(), s, p)
		shards[s] = Shard{Replicas: replicas(di, cfg, factory, nil), Lo: lo, Hi: hi}
	}
	return New(cfg, shards...)
}

// replicas returns cfg.Replicas (default 1) replicas of one shard:
// first itself, then reopenings of it over the same directory and
// bytes. Each has its own independently charged store (cfg.IO) and,
// when cfg.CacheBytes is positive, its own decoded-block cache.
func replicas(first *diskindex.Index, cfg Config, factory Factory, verify func() error) []Replica {
	reps := make([]Replica, max(cfg.Replicas, 1))
	for r := range reps {
		di := first
		if r > 0 {
			di = first.Reopen(cfg.io())
		}
		reps[r] = Replica{View: di, Alg: factory(di), Store: di.Store(), Verify: verify}
		if cfg.CacheBytes > 0 {
			reps[r].Cache = plcache.NewWithBudget(cfg.CacheBytes)
			di.SetPostingCache(reps[r].Cache)
		}
	}
	return reps
}

// io is the store configuration shards are opened with.
func (c Config) io() iomodel.Config {
	if c.IO != nil {
		return *c.IO
	}
	return iomodel.DefaultConfig()
}

// WriteDir partitions x into p shards and writes each as a diskindex
// directory under dir ("shard-0000", "shard-0001", ...) plus the
// shards.json manifest. innerShards is each shard index's build-time
// sNRA pre-partition count (0 = diskindex.DefaultShards).
func WriteDir(x *index.Index, p, innerShards int, dir string) error {
	if p <= 0 {
		return fmt.Errorf("shardserve: shard count must be positive, got %d", p)
	}
	if innerShards <= 0 {
		innerShards = diskindex.DefaultShards
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shardserve: creating %s: %w", dir, err)
	}
	m := Manifest{Version: manifestVersion, NumDocs: x.NumDocs()}
	for s, part := range x.Partition(p) {
		sub := fmt.Sprintf("shard-%04d", s)
		if err := diskindex.WriteDir(part, innerShards, filepath.Join(dir, sub)); err != nil {
			return fmt.Errorf("shardserve: writing shard %d: %w", s, err)
		}
		// Hash every index file back from disk — the digests attest to
		// the bytes actually written, not the bytes we meant to write.
		var files []merkle.FileDigest
		for _, name := range []string{diskindex.ManifestFile, diskindex.DirFile, diskindex.PostingsFile} {
			fd, err := merkle.HashFile(filepath.Join(dir, sub), name)
			if err != nil {
				return fmt.Errorf("shardserve: digesting shard %d: %w", s, err)
			}
			files = append(files, fd)
		}
		lo, hi := postings.ShardRange(x.NumDocs(), s, p)
		m.Shards = append(m.Shards, ShardManifest{
			Dir:        sub,
			LoDoc:      uint32(lo),
			HiDoc:      uint32(hi),
			Postings:   part.TotalPostings(),
			Files:      files,
			MerkleRoot: merkle.Root(files),
		})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ManifestFile), append(b, '\n'), 0o644)
}

// ReadManifest reads and validates the shards.json manifest of a
// built shard set. A set written by an older build is a
// *diskindex.RebuildError.
func ReadManifest(dir string) (Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return Manifest{}, fmt.Errorf("shardserve: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return Manifest{}, fmt.Errorf("shardserve: parsing %s: %w", ManifestFile, err)
	}
	if m.Version != manifestVersion {
		return Manifest{}, &diskindex.RebuildError{Dir: dir,
			Reason: fmt.Sprintf("shard-set manifest version %d, this build reads %d", m.Version, manifestVersion)}
	}
	if len(m.Shards) == 0 {
		return Manifest{}, fmt.Errorf("shardserve: manifest lists no shards")
	}
	for s, sm := range m.Shards {
		if len(sm.Files) == 0 {
			return Manifest{}, fmt.Errorf("shardserve: manifest carries no digests for shard %d (%s)", s, sm.Dir)
		}
	}
	return m, nil
}

// VerifySet recomputes every shard's file digests and Merkle root
// against the shards.json manifest and reports every disagreement
// (cmd/indexstat -verify).
func VerifySet(dir string) error {
	m, err := ReadManifest(dir)
	if err != nil {
		return err
	}
	var errs []error
	for _, sm := range m.Shards {
		if err := merkle.VerifyDir(filepath.Join(dir, sm.Dir), sm.Files, sm.MerkleRoot); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// OpenDir opens a shard set written by WriteDir: each shard gets
// cfg.Replicas (default 1) independently opened backends, each with
// its own simulated store (cfg.IO) and optional cache
// (cfg.CacheBytes), served by factory's algorithm. Every shard's files
// are verified against the manifest digests before the bytes are
// trusted — a corrupted shard fails the open rather than serving wrong
// results — and every replica keeps a Verify hook, re-run before that
// replica can be promoted to primary.
func OpenDir(dir string, factory Factory, cfg Config) (*Group, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	shards := make([]Shard, len(m.Shards))
	for s, sm := range m.Shards {
		shards[s], err = openManifestShard(dir, s, sm, factory, cfg)
		if err != nil {
			return nil, err
		}
	}
	return New(cfg, shards...)
}

// OpenShard opens a single shard of a set written by WriteDir as its
// own one-shard group — the serving unit cmd/shardserver hosts. The
// replica set (cfg.Replicas independently opened backends), per-replica
// caches, manifest digest verification at open, and the re-verify hook
// used at promotion all live on this side of the wire; the remote
// caller sees one logical shard behind a shardrpc.Client.
func OpenShard(dir string, shard int, factory Factory, cfg Config) (*Group, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	if shard < 0 || shard >= len(m.Shards) {
		return nil, fmt.Errorf("shardserve: shard %d out of range [0,%d)", shard, len(m.Shards))
	}
	sh, err := openManifestShard(dir, shard, m.Shards[shard], factory, cfg)
	if err != nil {
		return nil, err
	}
	return New(cfg, sh)
}

// openManifestShard opens one shard of a written set: the directory is
// verified against its manifest digests and read once, then reopened
// for each further replica (cfg.Replicas, default 1), each with its own
// simulated store (cfg.IO) and optional cache (cfg.CacheBytes), served
// by factory's algorithm. Every replica keeps the Verify hook, re-run
// before it can be promoted to primary.
func openManifestShard(dir string, s int, sm ShardManifest, factory Factory, cfg Config) (Shard, error) {
	shardDir := filepath.Join(dir, sm.Dir)
	files, root := sm.Files, sm.MerkleRoot
	verify := func() error { return merkle.VerifyDir(shardDir, files, root) }
	if err := verify(); err != nil {
		return Shard{}, fmt.Errorf("shardserve: shard %d failed verification: %w", s, err)
	}
	di, err := diskindex.OpenDir(shardDir, cfg.io())
	if err != nil {
		return Shard{}, fmt.Errorf("shardserve: opening shard %d: %w", s, err)
	}
	reps := replicas(di, cfg, factory, verify)
	return Shard{Name: fmt.Sprintf("shard%d", s), Replicas: reps, Lo: model.DocID(sm.LoDoc), Hi: model.DocID(sm.HiDoc)}, nil
}
