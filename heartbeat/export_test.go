package heartbeat

// ShardBacklog reports t's global-shard backlog (records, or time-index
// entries if more, not yet released by the aggregator) and the soft limit
// at which t's own beats flush. Exact when called by t's producer.
func ShardBacklog(t *Thread) (backlog, soft uint64) {
	return t.g.ring.Backlog(), t.g.soft
}
