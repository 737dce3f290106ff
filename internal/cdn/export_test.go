package cdn

import "sww/internal/http2"

// The handful of internals the scenario tests in package cdn_test
// reach for. Those tests live outside the package because they boot
// the tier through internal/tier, which imports cdn.

type PushAck = pushAck

func (e *Edge) SetLastSeq(seq uint64) { e.lastSeq.Store(seq) }

func (e *Edge) ObserveOriginEpoch(epoch uint64) uint64 { return e.observeOriginEpoch(epoch) }

func (e *Edge) Cached(path string, gen http2.GenAbility) bool {
	_, ok := e.cache.Peek(cacheKey(path, gen))
	return ok
}

func (o *Origin) ObservePoll(name, addr string, since uint64) { o.observePoll(name, addr, since) }

const (
	PeerFillHeader = peerFillHeader
	DeadFailures   = deadFailures
)
