package main

import (
	"fmt"
	"runtime"
	"time"

	"flashgraph"
	"flashgraph/internal/graph"
	"flashgraph/internal/pagecache"
	"flashgraph/internal/safs"
	"flashgraph/internal/ssd"
)

const mib = 1 << 20

// counters is a snapshot of the substrate-wide and runtime counters a
// measured phase is bracketed by.
type counters struct {
	array ssd.ArrayStats
	cache pagecache.Stats
	mem   runtime.MemStats
}

func snapshot(fs *safs.FS) counters {
	var c counters
	c.array = fs.Array().Stats()
	c.cache = fs.Cache().Stats()
	runtime.ReadMemStats(&c.mem)
	return c
}

// substrateDeltas fills the ssd, pagecache and Go-runtime metrics with
// what changed between two snapshots.
func substrateDeltas(layer map[string]float64, a, b counters) {
	layer["ssd.reads"] = float64(b.array.Reads - a.array.Reads)
	layer["ssd.read_mb"] = float64(b.array.BytesRead-a.array.BytesRead) / mib
	layer["ssd.coalesced"] = float64(b.array.CoalescedReqs - a.array.CoalescedReqs)
	layer["ssd.queue_peak"] = float64(b.array.QueuePeak)
	layer["ssd.busy_s"] = (b.array.Busy - a.array.Busy).Seconds()
	hits, misses := b.cache.Hits-a.cache.Hits, b.cache.Misses-a.cache.Misses
	layer["pagecache.hits"] = float64(hits)
	layer["pagecache.misses"] = float64(misses)
	layer["pagecache.evictions"] = float64(b.cache.Evictions - a.cache.Evictions)
	layer["pagecache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	layer["go.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	layer["go.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// engineTotals sums the RunStats of a measured phase's engine runs,
// split by engine, plus the allocations made during vertex-engine runs.
type engineTotals struct {
	messages, steals, edgeRequests, merged int64
	computeS, waitS                        float64
	mallocs, allocBytes                    uint64
	stripeReads, stripeBytes               int64
}

// add folds one run in. m0 and m1 bracket a vertex-engine run when the
// caller read them (traced runs only); nil skips allocation counting.
func (t *engineTotals) add(st flashgraph.RunStats, m0, m1 *runtime.MemStats) {
	if st.Engine == string(flashgraph.EngineSpMV) {
		t.stripeReads += st.EdgeRequests
		t.stripeBytes += st.BytesRead
		return
	}
	t.messages += st.Messages
	t.steals += st.Steals
	t.edgeRequests += st.EdgeRequests
	t.merged += st.MergedRequests
	t.computeS += st.CPUUtil * st.Elapsed.Seconds() * float64(threads)
	t.waitS += st.WaitTime.Seconds()
	if m0 != nil && m1 != nil {
		t.mallocs += m1.Mallocs - m0.Mallocs
		t.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	}
}

func (t *engineTotals) fill(layer map[string]float64) {
	layer["core.messages"] = float64(t.messages)
	layer["core.allocs_per_message"] = ratio(float64(t.mallocs), float64(t.messages))
	layer["core.alloc_mb"] = float64(t.allocBytes) / mib
	layer["core.compute_s"] = t.computeS
	layer["core.io_wait_s"] = t.waitS
	layer["core.steals"] = float64(t.steals)
	layer["safs.edge_requests"] = float64(t.edgeRequests)
	layer["safs.merged_requests"] = float64(t.merged)
	layer["safs.merge_ratio"] = ratio(float64(t.edgeRequests), float64(t.merged))
	layer["spmv.stripe_reads"] = float64(t.stripeReads)
	layer["spmv.read_mb"] = float64(t.stripeBytes) / mib
}

// decodeNsPerEdge times graph's record decoder over every edge-list
// record of the image at path, outside the engine: the image is loaded
// into memory first, so only decoding is timed.
func decodeNsPerEdge(path string, tr *tracer) (float64, error) {
	g, err := flashgraph.LoadFile(path)
	if err != nil {
		return 0, fmt.Errorf("loading %s for the decode pass: %w", path, err)
	}
	img := g.Image()
	type list struct {
		dir  graph.EdgeDir
		data []byte
		idx  *graph.Index
	}
	lists := []list{{graph.OutEdges, img.OutData, img.OutIndex}}
	if img.Directed {
		lists = append(lists, list{graph.InEdges, img.InData, img.InIndex})
	}
	op := tr.begin("op.decode", 0, -1)
	sp := tr.begin("graph.decode", 0, op)
	var dst []graph.VertexID
	var scratch []byte
	var edges int64
	start := time.Now()
	for _, l := range lists {
		var off int64
		for v := 0; v < img.NumV; v++ {
			size := l.idx.RecordBytes(graph.VertexID(v))
			pv := graph.NewPageVertexBytes(graph.VertexID(v), l.dir, l.data[off:off+size], img.AttrSize, img.Encoding)
			dst = pv.Edges(dst, scratch)
			edges += int64(len(dst))
			off += size
		}
	}
	elapsed := time.Since(start)
	tr.end(sp)
	tr.end(op)
	if edges == 0 {
		return 0, fmt.Errorf("decode pass over %s saw no edges", path)
	}
	return float64(elapsed.Nanoseconds()) / float64(edges), nil
}
