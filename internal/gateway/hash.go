package gateway

import (
	"hash/fnv"
	"sort"
)

// Placement is rendezvous (highest-random-weight) hashing: every
// (backend, session) pair gets a stable pseudo-random score and the
// session lands on the highest-scoring eligible backend. The property
// that matters for a fleet is minimal disruption — when a backend
// joins or leaves, only the sessions whose top choice changed move,
// unlike modulo hashing where almost everything reshuffles. No state
// to replicate either: any gateway (or a restarted one) computes the
// same placement from the same backend list.

// rendezvousScore is the weight of placing session on the backend at
// addr: FNV-1a over addr NUL session — the separator keeps ("ab","c")
// and ("a","bc") from colliding — through fmix64. FNV-1a's high bits
// are set almost entirely by the last bytes hashed, so compared raw,
// the last character of the session name would pick the backend.
func rendezvousScore(addr, session string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	h.Write([]byte{0})
	h.Write([]byte(session))
	return fmix64(h.Sum64())
}

// fmix64 is murmur3's 64-bit finalizer: every input bit moves every
// output bit with probability near one half.
func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// rendezvousPick returns the highest-scoring backend for session, or
// nil when the slate is empty.
func rendezvousPick(session string, backends []*backend) *backend {
	var best *backend
	var bestScore uint64
	for _, b := range backends {
		if s := rendezvousScore(b.addr(), session); best == nil || s > bestScore {
			best, bestScore = b, s
		}
	}
	return best
}

// rendezvousOrder returns backends sorted by descending score for
// session — the preference order a lookup sweep should probe in, so
// misses check the session's most likely home first.
func rendezvousOrder(session string, backends []*backend) []*backend {
	out := append([]*backend(nil), backends...)
	sort.SliceStable(out, func(i, j int) bool {
		return rendezvousScore(out[i].addr(), session) > rendezvousScore(out[j].addr(), session)
	})
	return out
}
