package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodesPerReplica is the virtual-node fan-out per replica. 64 vnodes
// keep the largest/smallest shard ratio within a few percent for small
// fleets while the ring stays tiny (N*64 points).
const vnodesPerReplica = 64

// ring is an immutable consistent-hash ring over replica names. Job ids
// hash onto the circle and are owned by the first vnode clockwise;
// liveness filtering happens at lookup time (Sequence skips nothing —
// the caller walks the preference order and applies its own health
// view), so membership changes never rebuild the ring and placement of
// jobs on surviving replicas is stable when one dies.
type ring struct {
	points []ringPoint // sorted by hash
	names  []string
}

type ringPoint struct {
	hash    uint64
	replica string
}

func newRing(names []string) *ring {
	r := &ring{names: append([]string(nil), names...)}
	for _, n := range names {
		for v := 0; v < vnodesPerReplica; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(fmt.Sprintf("%s#%d", n, v)),
				replica: n,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on name so the order is total and deterministic even
		// in the (astronomically unlikely) event of an FNV collision.
		return r.points[i].replica < r.points[j].replica
	})
	return r
}

// hash64 is FNV-1a over the key, passed through a splitmix64-style
// finalizer. Raw FNV avalanches poorly on short keys that differ only
// in their last characters — exactly what sequential job ids are — and
// without the finalizer whole runs of ids land in one replica's arc.
// Placement only needs a stable, evenly spread hash, not a
// cryptographic one.
func hash64(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Sequence returns the failover preference order for a job id: the
// distinct replicas in clockwise vnode order starting at hash(id). The
// first entry is the home replica; dispatch walks the rest when earlier
// candidates are dead, quarantined, or at their queue bound.
func (r *ring) Sequence(id string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hash64(id)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, len(r.names))
	out := make([]string, 0, len(r.names))
	for i := 0; i < len(r.points) && len(out) < len(r.names); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, p.replica)
		}
	}
	return out
}
