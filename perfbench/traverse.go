package main

import (
	"math/rand/v2"
	"runtime"
	"time"

	"flashgraph"
)

// runTraverse is a closed loop of one client running BFS after BFS on a
// raw-encoded RMAT image several times the page cache. Sources are
// distinct vertices with out-edges, in a seeded order.
func runTraverse(cfg config, tr *tracer) (*outcome, error) {
	scale, epv := 16, 16
	if cfg.tiny {
		scale = 10
	}
	specs := []graphSpec{{name: "rmat", scale: scale, epv: epv, seed: cfg.seed, enc: flashgraph.EncodingRaw}}
	cacheOf := func(data int64) int64 { return data / 8 }
	sub, setupS, err := setUp(cfg, tr, specs, cacheOf, nil)
	if err != nil {
		return nil, err
	}
	defer sub.close()
	eng := sub.engines["rmat"]
	o := newOutcome()
	o.e2e["setup_s"] = setupS.cpuS
	o.note("rmat scale %d epv %d raw: %d edges, %.1f MiB edge data, page cache %.2f MiB", scale, epv, sub.build.NumEdges, float64(sub.build.DataBytes)/mib, float64(cacheOf(sub.build.DataBytes))/mib)

	var sources []flashgraph.VertexID
	for v, ok := range sub.hasOut {
		if ok {
			sources = append(sources, flashgraph.VertexID(v))
		}
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x7261766572))
	rng.Shuffle(len(sources), func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })

	var (
		lat, cpu, topk []float64
		hashes         []uint64
		totals         engineTotals
	)
	// Start the measured phase on a collected heap, so that the set-up's
	// garbage is not collected on its clock.
	runtime.GC()
	before := snapshot(sub.cat.FS())
	start := time.Now()
	for i := 0; i < len(sources) && (i == 0 || time.Since(start) < cfg.seconds); i++ {
		b := flashgraph.NewBFS(sources[i])
		o.attempted++
		res, err := runJob(tr, int64(i), job{"bfs", "level", func() (flashgraph.RunStats, error) { return eng.Run(b) }, b.Result}, "core")
		if err != nil {
			o.failed++
			o.check(false, "bfs %d: %v", i, err)
			hashes = append(hashes, 0)
			continue
		}
		lat = append(lat, float64(res.total.Nanoseconds())/1e6)
		cpu = append(cpu, float64(res.cpu.Nanoseconds())/1e6)
		topk = append(topk, float64(res.topk.Microseconds()))
		totals.add(res.stats, res.m0, res.m1)
		hashes = append(hashes, hashLevels(b.Level))
	}
	after := snapshot(sub.cat.FS())
	o.e2e["peak_rss_mb"] = peakRSSMiB()
	o.e2e["op_cpu_ms"] = median(cpu)
	tailMs, pct := tail(lat)

	ref := newRefGraph(scale, epv, cfg.seed)
	var scanned int64
	bad := 0
	for i, h := range hashes {
		level, n := ref.bfs(sources[i])
		scanned += n
		if h != hashLevels(level) {
			bad++
		}
	}
	o.check(bad == 0, "%d of %d BFS level vectors differ from the queue-BFS reference", bad, len(hashes))
	var busy float64
	for _, l := range lat {
		busy += l / 1000
	}
	mteps := float64(scanned) / busy / 1e6
	o.note("%d BFS: processor time p50 %.2fms; wall p50 %.2fms, p%.1f %.2fms, %.2f MTEPS; set-up %.3fs processor, %.3fs wall", len(lat), median(cpu), median(lat), pct, tailMs, mteps, setupS.cpuS, setupS.wallS)

	if tr.on {
		ingestMetrics(o.layer, sub)
		substrateDeltas(o.layer, before, after)
		totals.fill(o.layer)
		o.layer["result.topk_us"] = median(topk)
		o.layer["op.wall_p50_ms"] = median(lat)
		o.layer["op.setup_wall_s"] = setupS.wallS
		o.layer["op.bfs_tail_ms"] = tailMs
		o.layer["op.bfs_mteps"] = mteps
		ns, err := decodeNsPerEdge(sub.paths["rmat"], tr)
		if err != nil {
			return nil, err
		}
		o.layer["graph.decode_ns_per_edge"] = ns
	}
	return o, nil
}
