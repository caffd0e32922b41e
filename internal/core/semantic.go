package core

import (
	"math/bits"
	"sort"

	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
)

// Semantic partner bias — the closing idea of §5.2: "In some cases we may
// also rely on semantic knowledge to bias the participation … and provide
// grouping according to this semantic knowledge."
//
// In content mode, every peer summarises its interest as a 64-bit Bloom
// fingerprint of its subscription sources and piggybacks it on gossip
// messages (8 bytes). Receivers remember senders' fingerprints. When
// SemanticBias ∈ (0, 1] is configured, that fraction of each round's
// partners is chosen among the known peers whose interest fingerprint
// overlaps the fingerprint of the batch *being sent* — events flow
// toward peers likely to deliver them. The remaining partners stay
// uniform, preserving the connectivity gossip's reliability depends on.
//
// Topic subscriptions fingerprint exactly (an event's topic hashes to
// the same bits as a `topic == "t"` subscription); arbitrary content
// filters fall back to unbiased gossip for matching purposes.

// interestFingerprint hashes each subscription source into a 64-bit Bloom
// filter (2 probes per subscription).
func interestFingerprint(in *pubsub.Interest) uint64 {
	var fp uint64
	for _, sub := range in.Subscriptions() {
		h := fnv64(sub.Source)
		fp |= 1 << (h & 63)
		fp |= 1 << ((h >> 8) & 63)
	}
	return fp
}

func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// eventFingerprint hashes an event's topic the same way a plain topic
// subscription hashes into interest fingerprints, so overlap between an
// event batch and a peer's interest is meaningful.
func eventFingerprint(ev *pubsub.Event) uint64 {
	h := fnv64(pubsub.Topic(ev.Topic).String())
	var fp uint64
	fp |= 1 << (h & 63)
	fp |= 1 << ((h >> 8) & 63)
	return fp
}

// batchFingerprint is the union over a batch's events.
func batchFingerprint(events []*pubsub.Event) uint64 {
	var fp uint64
	for _, ev := range events {
		fp |= eventFingerprint(ev)
	}
	return fp
}

// fingerprintOverlap counts shared set bits — a proxy for shared
// interest.
func fingerprintOverlap(a, b uint64) int { return bits.OnesCount64(a & b) }

// fingerprintWireSize is the piggyback cost per gossip message.
const fingerprintWireSize = 8

// rememberFingerprint stores a peer's advertised fingerprint.
func (nd *Node) rememberFingerprint(from simnet.NodeID, fp uint64) {
	if fp == 0 || from == nd.Self {
		return
	}
	if nd.peerFPs == nil {
		nd.peerFPs = make(map[simnet.NodeID]uint64, 64)
	}
	nd.peerFPs[from] = fp
}

// fpAds samples a couple of known (peer, fingerprint) pairs to piggyback,
// spreading profile knowledge epidemically (deterministic order, random
// choice from the node's RNG).
func (nd *Node) fpAds(k int) []fpAd {
	if len(nd.peerFPs) == 0 || k <= 0 {
		return nil
	}
	ids := make([]int, 0, len(nd.peerFPs))
	for id := range nd.peerFPs {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	if k > len(ids) {
		k = len(ids)
	}
	out := make([]fpAd, 0, k)
	for _, idx := range nd.Rng.Perm(len(ids))[:k] {
		id := simnet.NodeID(ids[idx])
		out = append(out, fpAd{ID: id, FP: nd.peerFPs[id]})
	}
	return out
}

// biasedPeers selects k partners for sending a batch with fingerprint
// targetFP: round(k·bias) of them are the known peers with the greatest
// interest overlap with the batch, the rest uniform. Falls back to
// uniform sampling while no fingerprints are known or the batch carries
// no topical signal.
func (nd *Node) biasedPeers(k int, targetFP uint64) []simnet.NodeID {
	bias := nd.cfg.SemanticBias
	if bias <= 0 || len(nd.peerFPs) == 0 || targetFP == 0 {
		return nd.Partners(k)
	}
	if bias > 1 {
		bias = 1
	}
	want := int(float64(k)*bias + 0.5)
	if want > k {
		want = k
	}

	// Collect all known peers whose interest overlaps the batch, in
	// deterministic (sorted) order, then sample `want` of them uniformly
	// with the node's RNG. Random choice within the matching set matters:
	// always picking the top-k would funnel all traffic to the same few
	// peers and starve the rest of the interest group.
	ids := make([]int, 0, len(nd.peerFPs))
	for id := range nd.peerFPs {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	matching := make([]simnet.NodeID, 0, len(ids))
	for _, idInt := range ids {
		id := simnet.NodeID(idInt)
		if id != nd.Self && fingerprintOverlap(targetFP, nd.peerFPs[id]) > 0 {
			matching = append(matching, id)
		}
	}
	if want > len(matching) {
		want = len(matching)
	}
	out := make([]simnet.NodeID, 0, k)
	used := make(map[simnet.NodeID]struct{}, k)
	for _, idx := range nd.Rng.Perm(len(matching))[:want] {
		out = append(out, matching[idx])
		used[matching[idx]] = struct{}{}
	}
	// Fill the remainder uniformly, skipping duplicates.
	for _, id := range nd.Partners(k) {
		if len(out) >= k {
			break
		}
		if _, dup := used[id]; dup {
			continue
		}
		used[id] = struct{}{}
		out = append(out, id)
	}
	return out
}
