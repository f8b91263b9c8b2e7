package net

import (
	"fmt"
	"strconv"

	"mmtag/internal/par"
)

// Horizontal partitioning: one deployment split into per-AP-group
// shards, each small enough for one continuous-inventory daemon
// (internal/serve) to host, with the routing tier (internal/router)
// scatter-gathering across them. The map from global configuration to
// shard slices is a pure function of (APs, Tags, Shards) — every
// participant (daemon, router, load generator) derives the same
// partition independently, so no coordination service is needed.

// streamShardSeed derives each shard's private seed namespace; disjoint
// from the deployment (1..3 << 40) and scale (4..5 << 40) namespaces by
// the high bits.
const streamShardSeed uint64 = 6 << 40

// ShardSpec describes one shard of a horizontally partitioned
// deployment: a contiguous AP group and the contiguous global tag-ID
// range placed with it. Specs are produced by PartitionDeployment and
// are deterministic — the router and every daemon compute identical
// maps from the same (aps, tags, shards) triple.
type ShardSpec struct {
	// Index and Count identify the shard within the fleet.
	Index, Count int
	// APBase and APCount delimit the shard's AP group: global AP
	// indices [APBase, APBase+APCount).
	APBase, APCount int
	// TagBase and TagCount delimit the shard's tag-ID range: global
	// tag IDs (TagBase, TagBase+TagCount] — i.e. IDs TagBase+1 through
	// TagBase+TagCount inclusive, matching the 1-based deployment IDs.
	TagBase, TagCount int
}

// OwnsTag reports whether global tag ID id lives on this shard.
func (sp ShardSpec) OwnsTag(id int) bool {
	return id > sp.TagBase && id <= sp.TagBase+sp.TagCount
}

// Seed returns the shard's private deployment seed, derived from the
// fleet seed so sibling shards never replay each other's placement or
// fault streams.
func (sp ShardSpec) Seed(fleetSeed int64) int64 {
	return par.Derive(fleetSeed, streamShardSeed+uint64(sp.Index))
}

// Slice rewrites a fleet-wide deployment config into this shard's
// sub-deployment: the shard's AP group as its own near-square grid, the
// shard's tag range carrying global IDs via TagIDBase, and a derived
// per-shard seed. Everything else (mobility, faults, epoch pacing)
// carries over unchanged.
func (sp ShardSpec) Slice(fleet Config) Config {
	out := fleet
	out.APs = sp.APCount
	out.Cols = 0 // re-derive a near-square grid for the sub-deployment
	out.Tags = sp.TagCount
	out.TagIDBase = sp.TagBase
	out.Seed = sp.Seed(fleet.Seed)
	return out
}

// PartitionDeployment splits a fleet of aps access points and tags tags
// across shards daemons: contiguous AP groups and tag-ID ranges whose
// sizes differ by at most one, in shard-index order. The split is a
// pure function of its arguments; callers on different machines agree
// on it by construction.
func PartitionDeployment(aps, tags, shards int) ([]ShardSpec, error) {
	if shards < 1 {
		return nil, fmt.Errorf("net: partition needs at least one shard, got %d", shards)
	}
	if aps < shards {
		return nil, fmt.Errorf("net: %d APs cannot fill %d shards", aps, shards)
	}
	if tags < shards {
		return nil, fmt.Errorf("net: %d tags cannot fill %d shards", tags, shards)
	}
	if tags > 255 {
		return nil, fmt.Errorf("net: partitioned deployments carry global uint8 tag IDs, got %d tags", tags)
	}
	specs := make([]ShardSpec, shards)
	for i := range specs {
		apLo, apHi := i*aps/shards, (i+1)*aps/shards
		tagLo, tagHi := i*tags/shards, (i+1)*tags/shards
		specs[i] = ShardSpec{
			Index:    i,
			Count:    shards,
			APBase:   apLo,
			APCount:  apHi - apLo,
			TagBase:  tagLo,
			TagCount: tagHi - tagLo,
		}
	}
	return specs, nil
}

// ParseTagID parses the {id} path segment of GET /v1/tags/{id}: plain
// decimal digits (leading zeros allowed) naming a tag ID in 0..255, the
// range of the air-frame TagID. A sign, a space or any other character
// is an error. The router and every shard parse with this one rule, so
// a token the shard would reject never reaches it through the router.
func ParseTagID(s string) (uint8, error) {
	id, err := strconv.ParseUint(s, 10, 8)
	if err != nil {
		return 0, fmt.Errorf("tag id must be 0..255, got %q", s)
	}
	return uint8(id), nil
}

// OwnerShard returns the shard index owning global tag ID id under the
// (tags, shards) partition, or -1 when the ID is outside the
// population. It inverts the same arithmetic PartitionDeployment uses,
// so the router's pinning map and the daemons' tag ranges can never
// disagree.
func OwnerShard(tags, shards, id int) int {
	if id < 1 || id > tags || shards < 1 {
		return -1
	}
	// Tag IDs (lo, hi] with lo = i*tags/shards: shard i owns id iff
	// i*tags/shards < id <= (i+1)*tags/shards, i.e. i = ceil(id*shards/tags)-1.
	return (id*shards+tags-1)/tags - 1
}
