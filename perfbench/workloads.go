package main

import (
	"fmt"

	"hybridkv/internal/cluster"
	"hybridkv/internal/pagecache"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// spec is one benchmark workload: a deployment, a dataset, an operation mix,
// the nominal offered rate the latencies are measured at, and the fixed
// offered-rate ladder goodput is read from. README.md gives the reasons for
// each choice.
type spec struct {
	name string

	servers, replicas int
	bypass            bool
	slabMem           int64 // slab RAM per server
	cachePages        int   // page-cache budget per server, 4 KB pages (0 = cluster default)

	valueSize int // every value, preloaded or SET
	keys      int
	readFrac  float64
	pattern   workload.Pattern

	// nominalKops is the offered rate of the latency measurement, window
	// the virtual time it issues for; the first tenth is warm-up.
	nominalKops float64
	window      sim.Time
	// ladderKops is climbed from the bottom until the first rung that
	// misses limit, and the rate then bisected between that rung and the
	// one below. Each rate issues rungOps operations, so every rate has the
	// same sample count and costs about the same host time.
	ladderKops []float64
	rungOps    int
	limit      sim.Time
}

// Every workload runs H-RDMA-Opt-NonB-i on the Cluster-A (SATA) profile
// with two simulated clients issuing iset/iget.
const clients = 2

var specs = []*spec{
	{
		// The paper's headline case: 96 MB of data against 32 MB of slab
		// RAM and a 16 MB page cache, so GETs reach blockdev and SETs force
		// eviction flushes. Bypass and replication are off.
		name:    "ssd-rw50",
		servers: 1, slabMem: 32 << 20, cachePages: 4096,
		valueSize: 32 << 10, keys: 3072, readFrac: 0.5, pattern: workload.Zipf,
		nominalKops: 100, window: 3000 * sim.Millisecond,
		ladderKops: []float64{100, 125, 175, 250},
		rungOps:    100000,
		limit:      2 * sim.Millisecond,
	},
	{
		// 4 MB of data in 16 MB of slab: GETs take one-sided RDMA READs
		// past the server CPU and every SSD layer is idle.
		name:    "bypass-read95",
		servers: 1, bypass: true, slabMem: 16 << 20,
		valueSize: 512, keys: (4 << 20) / 512, readFrac: 0.95, pattern: workload.Zipf,
		nominalKops: 4000, window: 25 * sim.Millisecond,
		ladderKops: []float64{1000, 2000, 4000, 6000, 8000},
		rungOps:    25000,
		limit:      50 * sim.Microsecond,
	},
	{
		// Replicated SETs (R=2 over 3 servers) run beside bypass GETs on
		// one directory, with forwarding and scrub; data fits in memory.
		// The costliest workload per operation on the host.
		name:    "repl-rw50",
		servers: 3, replicas: 2, bypass: true, slabMem: 64 << 20,
		valueSize: 1 << 10, keys: 4096, readFrac: 0.5, pattern: workload.Uniform,
		nominalKops: 4000, window: 20 * sim.Millisecond,
		ladderKops: []float64{1000, 2000, 4000, 6000, 8000},
		rungOps:    6000,
		limit:      50 * sim.Microsecond,
	},
}

// rungWindow is the issue window that offers rungOps operations at kops.
func (s *spec) rungWindow(kops float64) sim.Time {
	return sim.Time(float64(s.rungOps) / (kops * 1e3) * float64(sim.Second))
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// config is the deployment every run of the workload builds.
func (s *spec) config() cluster.Config {
	prof := cluster.ClusterA()
	if s.cachePages > 0 {
		// Shrink the page cache below the dataset, watermarks in the same
		// proportions cluster.New uses when it scales the cache.
		prof.PageCache = pagecache.DefaultParams()
		prof.PageCache.MaxPages = s.cachePages
		prof.PageCache.DirtyHighPages = s.cachePages / 4
		prof.PageCache.ThrottlePages = s.cachePages / 2
	}
	return cluster.Config{
		Design:            cluster.HRDMAOptNonBI,
		Profile:           prof,
		Servers:           s.servers,
		Clients:           clients,
		ServerMem:         s.slabMem,
		ReplicationFactor: s.replicas,
		Bypass:            s.bypass,
	}
}

// keyOf is the preload's and the generators' key naming; it matches
// workload.Generator.Key so preloaded keys are the ones the mix draws.
func keyOf(i int) string { return fmt.Sprintf("obj:%010d", i) }
