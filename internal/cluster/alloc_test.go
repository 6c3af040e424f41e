package cluster_test

import (
	"runtime"
	"testing"

	"prism/internal/cluster"
	"prism/internal/experiments"
	"prism/internal/prio"
	"prism/internal/sim"
)

// TestClusterEchoAllocsPerRequest bounds what the cluster allocates per
// echo request on the benchmark's cluster configuration (16 hosts, 1000
// containers, priority placement, one worker). Inside a host the request
// and reply ride pooled buffers, and on the fabric they ride the nodes'
// recycled wire buffers. What remains is the histogram chunk a new
// latency value reaches (about 0.1 per request) and the wire buffers
// that lists drifting apart leave to the GC and reallocate (about 0.04:
// a request a host drops returns its buffer to the server's list, not
// the ingress node's): at most 0.3 allocations per request sent, in each
// of three 10 ms windows after warm-up.
func TestClusterEchoAllocsPerRequest(t *testing.T) {
	p := experiments.Default()
	const hosts, containers = 16, 1000
	c, err := cluster.New(cluster.Config{
		Hosts:     hosts,
		Placement: cluster.PlacePriority,
		Seed:      p.Seed,
		Host:      experiments.BaseSpec(p, prio.ModeSync),
		Specs:     experiments.ClusterSpecs(p, hosts, containers),
		Admission: &cluster.Admission{Rate: 55_000, Burst: 96, HiReserve: 0.25},
		Warmup:    20 * sim.Millisecond,
		EchoCost:  p.EchoCost,
		SinkCost:  p.SinkCost,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: the pools, free lists, link buffers and histogram buckets
	// grow to the traffic's working set.
	end := 60 * sim.Millisecond
	if err := c.Run(end-c.Cfg.Warmup, 1); err != nil {
		t.Fatal(err)
	}
	sent := func() (n uint64) {
		for _, f := range c.Flows {
			if f.PP != nil {
				n += f.PP.Sent
			}
		}
		return n
	}
	var before, after runtime.MemStats
	for w := 0; w < 3; w++ {
		reqs := sent()
		runtime.ReadMemStats(&before)
		end += 10 * sim.Millisecond
		if err := c.Group.Run(end, 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		reqs = sent() - reqs
		allocs := after.Mallocs - before.Mallocs
		if reqs == 0 {
			t.Fatalf("window %d sent no echo request", w)
		}
		perReq := float64(allocs) / float64(reqs)
		t.Logf("window %d: %d allocations for %d requests (%.2f per request)", w, allocs, reqs, perReq)
		if perReq > 0.3 {
			t.Errorf("window %d: %.2f allocations per echo request, want ≤ 0.3", w, perReq)
		}
	}
}
