// Central registry of fault-injection sites. Every Check/CheckArg call
// in the serving stack must pass one of the constants below — the
// faultsite analyzer in tools/resinferlint enforces this — and
// ParseSpec rejects spec strings naming a site that is not registered
// here, so a typo in an annserve -faults flag fails at flag-parse time
// instead of silently arming nothing.
//
// Adding a site is a two-line change: declare the constant and add it
// to knownSites. Tests arming ad-hoc sites through Inject are exempt;
// only the serving stack's wired sites and operator-facing spec
// strings go through the registry.
package fault

import "strings"

// Site names one injection point. The constants below are the sites the
// serving stack consults; tests may invent ad-hoc sites of their own
// (via Inject — ParseSpec accepts registered sites only).
type Site string

// Injection sites wired into the serving stack.
const (
	// SiteWALAppend fires before a WAL record is serialized and written;
	// an injected error is returned as a (transient, retryable) append
	// failure with nothing written.
	SiteWALAppend Site = "wal.append"
	// SiteWALFsync fires in place of the fsync on the WAL append and
	// checkpoint paths; an injected error is a sync failure (fail-stop
	// until Recover), an injected delay models a slow disk.
	SiteWALFsync Site = "wal.fsync"
	// SiteShardSearch fires at the start of every per-shard probe of the
	// sharded fan-out; its argument is the shard number. Delay models a
	// stuck shard, error a failed one, panic a crashing one.
	SiteShardSearch Site = "shard.search"
	// SiteCompactBuild fires before a compaction rebuilds a shard's base
	// index; its argument is the shard number.
	SiteCompactBuild Site = "compact.build"
	// SiteCompactSwap fires before a compaction hot-swaps the rebuilt
	// base in; its argument is the shard number.
	SiteCompactSwap Site = "compact.swap"
	// SiteReplicaProbe fires before each health probe of a replica-set
	// member; its argument is the member index. Errors model a
	// partitioned peer, delays a slow one.
	SiteReplicaProbe Site = "replica.probe"
	// SiteReplicaFetch fires before a joining replica fetches the
	// primary's checkpoint snapshot; errors model a failed join.
	SiteReplicaFetch Site = "replica.fetch"
	// SiteReplicaStream fires before each WAL tail fetch of the catch-up
	// follower; errors and delays model a flaky or slow replication link.
	SiteReplicaStream Site = "replica.stream"
)

// knownSites is the authoritative set ParseSpec validates against, in
// the order Sites reports them.
var knownSites = []Site{
	SiteWALAppend,
	SiteWALFsync,
	SiteShardSearch,
	SiteCompactBuild,
	SiteCompactSwap,
	SiteReplicaProbe,
	SiteReplicaFetch,
	SiteReplicaStream,
}

// Sites returns the registered injection sites, in declaration order.
// The returned slice is a copy; callers may keep or mutate it.
func Sites() []Site {
	out := make([]Site, len(knownSites))
	copy(out, knownSites)
	return out
}

// KnownSite reports whether s is a registered injection site.
func KnownSite(s Site) bool {
	for _, k := range knownSites {
		if s == k {
			return true
		}
	}
	return false
}

// siteList renders the registered sites for ParseSpec's unknown-site
// error message.
func siteList() string {
	var b strings.Builder
	for i, k := range knownSites {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(k))
	}
	return b.String()
}
