package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"

	"monarch/internal/dataset"
	"monarch/internal/storage"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Dataset shape shared by every workload: ImageNet-like records of
// ~110 KiB in 2 MiB TFRecord shards, so one shard is 8 loader preads.
const (
	preadSize      = 256 << 10
	shardBytes     = 2 << 20
	recordsPerShrd = 18
	imageSigma     = 0.35
)

// shardInfo is what the loader checks a shard against.
type shardInfo struct {
	name    string
	size    int64
	records []int64 // payload length of each record, in file order
	crc     uint32  // CRC-32C of the whole shard file
}

// fixture is a generated TFRecord dataset on the PFS directory.
type fixture struct {
	dir    string
	shards []shardInfo
	bytes  int64
}

// makeFixture writes a dataset of n shards into dir. The seed drives
// record sizes and payload bytes.
func makeFixture(ctx context.Context, dir string, n int, seed uint64) (*fixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fs, err := storage.NewOSFS("fixture", dir, 0)
	if err != nil {
		return nil, err
	}
	// Shard names do not depend on the seed, so the peer ring splits
	// ownership the same way for every seed.
	spec := dataset.Spec{
		Name:       "train",
		NumImages:  n * recordsPerShrd,
		TotalBytes: int64(n) * shardBytes,
		NumShards:  n,
		SizeSigma:  imageSigma,
		Seed:       seed,
	}
	man, err := dataset.Materialize(ctx, fs, spec)
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	fx := &fixture{dir: dir}
	for _, sh := range man.Shards {
		data, err := os.ReadFile(filepath.Join(dir, sh.Name))
		if err != nil {
			return nil, err
		}
		info := shardInfo{name: sh.Name, size: sh.Size, crc: crc32.Checksum(data, castagnoli)}
		for _, e := range sh.Records {
			info.records = append(info.records, e.Length)
		}
		fx.shards = append(fx.shards, info)
		fx.bytes += sh.Size
	}
	return fx, nil
}

// records returns the number of records in the dataset.
func (fx *fixture) records() int {
	n := 0
	for _, s := range fx.shards {
		n += len(s.records)
	}
	return n
}

// corrupt flips one byte in the middle of a shard on the PFS directory,
// after its checksum was taken.
func (fx *fixture) corrupt(seed uint64) error {
	sh := fx.shards[int(seed%uint64(len(fx.shards)))]
	return flipByte(filepath.Join(fx.dir, sh.name), sh.size/2)
}

func flipByte(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		f.Close()
		return err
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shuffle returns a permutation of 0..n-1 for one epoch of one node's
// loaders on one set-up instance, drawn from the seed.
func shuffle(seed uint64, instance, epoch, node, n int) []int {
	r := rand.New(rand.NewPCG(seed, uint64(instance)<<40|uint64(epoch)<<8|uint64(node)))
	return r.Perm(n)
}

// fillPayload fills p with checkpoint shard bytes drawn from the seed.
func fillPayload(p []byte, seed uint64, shard int) {
	x := seed*0x9e3779b97f4a7c15 ^ uint64(shard)<<32 | 1
	for i := 0; i+8 <= len(p); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(p[i:], x)
	}
}

// stamp writes the burst number into the first 8 bytes of every 4 KiB
// block, so each burst writes content no earlier burst wrote.
func stamp(p []byte, burst int) {
	for i := 0; i+8 <= len(p); i += 4096 {
		binary.LittleEndian.PutUint64(p[i:], uint64(burst))
	}
}
