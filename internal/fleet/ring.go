package fleet

import (
	"fmt"
	"sort"
)

// ring is a consistent-hash ring mapping tenant IDs onto shards. Each
// shard projects vnodes points onto the 64-bit hash circle; a tenant lands
// on the first point clockwise of its own hash. Placement depends only on
// (tenant ID, shard count, vnodes) — never on registration order or
// process state — so a trace replays onto identical shards anywhere, and
// growing the shard count moves only ~1/shards of the tenants (the
// property plain modulo hashing lacks).
type ring struct {
	points []uint64 // sorted vnode positions
	shards []int    // shards[i] owns points[i]
}

// defaultVnodes balances the ring to a few percent spread at fleet scale
// while keeping the table small enough to stay cache-resident.
const defaultVnodes = 64

func newRing(shards, vnodes int) *ring {
	r := &ring{
		points: make([]uint64, 0, shards*vnodes),
		shards: make([]int, 0, shards*vnodes),
	}
	type pt struct {
		pos   uint64
		shard int
	}
	pts := make([]pt, 0, shards*vnodes)
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			pts = append(pts, pt{pos: hash64(fmt.Sprintf("shard-%d/vnode-%d", s, v)), shard: s})
		}
	}
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].pos != pts[b].pos {
			return pts[a].pos < pts[b].pos
		}
		return pts[a].shard < pts[b].shard // total order even on hash ties
	})
	for _, p := range pts {
		r.points = append(r.points, p.pos)
		r.shards = append(r.shards, p.shard)
	}
	return r
}

// shardOf returns the shard owning the tenant.
func (r *ring) shardOf(tenant string) int {
	h := hash64(tenant)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) {
		i = 0 // wrap: past the last point lands on the first
	}
	return r.shards[i]
}

// hash64 is 64-bit FNV-1a with a splitmix64 finalizer, inlined so routing
// never allocates. The finalizer matters: sequential IDs ("t0041", "t0042")
// differ only in their last bytes, and raw FNV moves the hash by just
// delta×prime there — far less than a vnode gap at fleet scale, which
// would clump neighboring tenants onto the same shard.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
