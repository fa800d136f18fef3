// Package cindex names the compressed configuration of the one on-disk
// index (package diskindex): the same directory, cursors and charged
// read path, built with codec.Group. It exists to validate, inside the
// reproduction, the claim the paper leans on when it abstracts
// compression away (§5): that decompression's end-to-end impact is
// marginal while the index shrinks 2–3x. BenchmarkCompressionImpact in
// the repository root runs identical queries over an index from each
// constructor and reports both sides.
package cindex

import (
	"sparta/internal/codec"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
)

// Index is diskindex's; a compressed index differs from an uncompressed
// one in the codec id its manifest carries and in nothing else.
type Index = diskindex.Index

// FromIndex builds x into a charged store with the group codec. shards
// is the sNRA pre-partition count (0 means diskindex.DefaultShards).
func FromIndex(x *index.Index, shards int, cfg iomodel.Config) (*Index, error) {
	return diskindex.FromIndexWith(x, shards, cfg, codec.Group)
}
