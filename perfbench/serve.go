package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"time"

	"flashgraph"
	"flashgraph/internal/serve"
)

// Per-class open-loop rates (requests per second). Each is below the
// rate at which that class alone saturates the server; README.md gives
// the measured saturation rates.
const (
	interactiveRate = 20.0
	analyticRate    = 1.0
	batchRate       = 0.5
)

// request is one scheduled submission of the open loop.
type request struct {
	due   time.Duration // from the start of the measured phase
	class string
	req   flashgraph.Request
}

// served is what the open loop observed for one request.
type served struct {
	request
	latency  time.Duration // due time to top-K in hand
	submit   time.Duration
	topk     time.Duration
	late     time.Duration
	query    flashgraph.Query
	checksum string
	err      error
}

// schedule lays out the open loop's requests for one run: each class at
// its fixed rate, its phase offset so the classes interleave.
// Interactive BFS sources are Zipf-skewed over a seeded order of the
// vertices with out-edges, so popular sources repeat and reach the
// result cache. Analytic label propagation and batch PageRank take
// distinct iteration caps, so each of them is computed.
func schedule(seed uint64, seconds time.Duration, hasOut []bool) []request {
	rng := rand.New(rand.NewPCG(seed, 0x7365727665))
	var sources []flashgraph.VertexID
	for v, ok := range hasOut {
		if ok {
			sources = append(sources, flashgraph.VertexID(v))
		}
	}
	rng.Shuffle(len(sources), func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })
	zipf := rand.NewZipf(rng, 1.1, 10, uint64(len(sources)-1))

	var out []request
	add := func(rate, phase float64, class string, mk func(i int) flashgraph.Request) {
		n := max(1, int(seconds.Seconds()*rate))
		for i := 0; i < n; i++ {
			due := time.Duration((float64(i) + phase) / rate * float64(time.Second))
			out = append(out, request{due: due, class: class, req: mk(i)})
		}
	}
	add(interactiveRate, 0, "interactive", func(int) flashgraph.Request {
		src := sources[zipf.Uint64()]
		return flashgraph.Request{Algo: "bfs", Params: flashgraph.MarshalParams(flashgraph.SrcParams{Src: src})}
	})
	lp := rng.Perm(max(1, int(seconds.Seconds()*analyticRate)))
	add(analyticRate, 0.3, "analytic", func(i int) flashgraph.Request {
		return flashgraph.Request{Algo: "labelprop", Class: string(flashgraph.ClassAnalytic),
			Params: flashgraph.MarshalParams(serve.LabelPropParams{Iters: 3 + lp[i]})}
	})
	pr := rng.Perm(max(1, int(seconds.Seconds()*batchRate)))
	add(batchRate, 0.6, "batch", func(i int) flashgraph.Request {
		return flashgraph.Request{Algo: "pagerank", Params: flashgraph.MarshalParams(flashgraph.PageRankParams{Iters: 20 + pr[i]})}
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// runServe drives open-loop traffic into a QoS-enabled server over a
// raw RMAT image that fits in the page cache, and times each request
// from its due time until its top-K answer is in hand.
func runServe(cfg config, tr *tracer) (*outcome, error) {
	scale, epv := 15, 16
	if cfg.tiny {
		scale = 10
	}
	specs := []graphSpec{{name: "rmat", scale: scale, epv: epv, seed: cfg.seed, enc: flashgraph.EncodingRaw}}
	cacheOf := func(data int64) int64 { return 2 * data }
	var srv *flashgraph.Server
	open := func(s *substrate) error {
		var err error
		srv, err = flashgraph.NewServer(s.cat, flashgraph.ServerConfig{
			MaxConcurrent: threads,
			MaxQueued:     1024,
			MaxHistory:    1 << 16,
			// Retained result vectors and the result cache reach these
			// budgets within the first seconds of a run, so peak_rss_mb
			// measures the server in its steady state, not the run's
			// length (the defaults, 64 and 32 MiB, are still filling
			// when a 15 s run ends).
			ResultBytes: 8 << 20,
			QoS:         flashgraph.QoSConfig{Enabled: true, CacheBytes: 8 << 20},
		})
		if err == nil {
			s.closers = append(s.closers, srv.Close)
		}
		return err
	}
	sub, setupS, err := setUp(cfg, tr, specs, cacheOf, open)
	if err != nil {
		return nil, err
	}
	defer sub.close()
	o := newOutcome()
	o.e2e["setup_s"] = setupS.cpuS
	o.note("rmat scale %d epv %d raw: %d edges, %.1f MiB edge data, page cache %.2f MiB", scale, epv, sub.build.NumEdges, float64(sub.build.DataBytes)/mib, float64(cacheOf(sub.build.DataBytes))/mib)

	plan := schedule(cfg.seed, cfg.seconds, sub.hasOut)
	results := make([]served, len(plan))
	var wg sync.WaitGroup
	// Start the measured phase on a collected heap, so that the set-up's
	// garbage is not collected on its clock.
	runtime.GC()
	before := snapshot(sub.cat.FS())
	start, cpu0 := time.Now(), cpuTime()
	// The open loop: one sender submits each request at its due time,
	// whatever is still outstanding; a goroutine per request waits for
	// the answer.
	for i, p := range plan {
		time.Sleep(time.Until(start.Add(p.due)))
		r := &results[i]
		r.request = p
		r.late = time.Since(start.Add(p.due))
		op := tr.begin("op."+p.class, int64(i), -1)
		var id int64
		r.submit, r.err = tr.timed("serve.submit", int64(i), op, func() error {
			var err error
			id, err = srv.Submit(p.req)
			return err
		})
		if r.err != nil {
			tr.end(op)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tr.end(op)
			r.err = awaitAnswer(tr, srv, id, int64(i), op, start.Add(p.due), r)
		}()
	}
	wg.Wait()
	phaseCPU := cpuTime() - cpu0
	after := snapshot(sub.cat.FS())
	stats := srv.Stats()

	lat := map[string][]float64{}
	wait := map[string][]float64{}
	var submitUs, topkUs, execMs, lateMs []float64
	var totals engineTotals
	for i := range results {
		r := &results[i]
		o.attempted++
		if r.err != nil {
			o.failed++
			o.check(false, "request %d (%s %s): %v", i, r.req.Algo, r.req.Params, r.err)
			continue
		}
		lat[r.class] = append(lat[r.class], float64(r.latency.Nanoseconds())/1e6)
		submitUs = append(submitUs, float64(r.submit.Nanoseconds())/1e3)
		topkUs = append(topkUs, float64(r.topk.Nanoseconds())/1e3)
		lateMs = append(lateMs, float64(r.late.Nanoseconds())/1e6)
		if r.query.Cache == "" {
			// Only queries that computed their result waited for a slot
			// and ran on an engine.
			wait[r.class] = append(wait[r.class], r.query.QueueWaitMS)
			totals.add(r.query.Stats, nil, nil)
			if r.class == "interactive" {
				execMs = append(execMs, float64(r.query.Finished.Sub(r.query.Started).Nanoseconds())/1e6)
			}
		}
	}
	o.e2e["peak_rss_mb"] = peakRSSMiB()
	// Requests run concurrently, so processor time is taken over the
	// whole measured phase and shared out over its requests.
	o.e2e["op_cpu_ms"] = phaseCPU.Seconds() * 1000 / float64(len(results))
	tailMs, pct := tail(lat["interactive"])
	o.note("%d requests, %.2f ms processor time each; set-up %.3fs processor, %.3fs wall", len(results), o.e2e["op_cpu_ms"], setupS.cpuS, setupS.wallS)
	o.note("%d requests; interactive p50 %.2fms p%.1f %.2fms; analytic p50 %.1fms (%d); batch p50 %.1fms (%d); latest send %.2fms late",
		len(results), median(lat["interactive"]), pct, tailMs, median(lat["analytic"]), len(lat["analytic"]), median(lat["batch"]), len(lat["batch"]), maxOf(lateMs))

	checkServed(o, sub, results, scale, epv, cfg.seed)

	if tr.on {
		ingestMetrics(o.layer, sub)
		substrateDeltas(o.layer, before, after)
		totals.fill(o.layer)
		o.layer["serve.submit_us"] = median(submitUs)
		for _, c := range []string{"interactive", "analytic", "batch"} {
			o.layer["serve.queue_wait_ms."+c] = median(wait[c])
		}
		o.layer["serve.exec_ms.interactive"] = median(execMs)
		o.layer["result.topk_us"] = median(topkUs)
		if rc := stats.ResultCache; rc != nil {
			o.layer["qos.cache_hits"] = float64(rc.Hits)
			o.layer["qos.coalesced"] = float64(rc.Coalesced)
			o.layer["qos.hit_ratio"] = ratio(float64(rc.Hits+rc.Coalesced), float64(len(results)))
		}
		o.layer["loadgen.late_ms"] = maxOf(lateMs)
		o.layer["op.wall_p50_ms"] = median(lat["interactive"])
		o.layer["op.setup_wall_s"] = setupS.wallS
		o.layer["op.interactive_tail_ms"] = tailMs
		o.layer["op.analytic_p50_ms"] = median(lat["analytic"])
		o.layer["op.batch_p50_ms"] = median(lat["batch"])
		ns, err := decodeNsPerEdge(sub.paths["rmat"], tr)
		if err != nil {
			return nil, err
		}
		o.layer["graph.decode_ns_per_edge"] = ns
	}
	return o, nil
}

// awaitAnswer waits for query id and fetches its top-10 answer,
// recording the query's own queue and execution intervals as spans.
func awaitAnswer(tr *tracer, srv *flashgraph.Server, id, op int64, parent int, due time.Time, r *served) error {
	w := tr.begin("serve.wait", op, parent)
	q, err := srv.Wait(id)
	tr.end(w)
	if err != nil {
		return err
	}
	if q.State != flashgraph.QueryDone {
		return fmt.Errorf("query %d ended %s: %s", id, q.State, q.Error)
	}
	if !q.Started.IsZero() {
		tr.record("serve.queue", op, w, q.Submitted, q.Started)
		layer := "core"
		if q.Stats.Engine == string(flashgraph.EngineSpMV) {
			layer = "spmv"
		}
		tr.record(layer+".exec", op, w, q.Started, q.Finished)
	}
	r.topk, err = tr.timed("result.topk", op, parent, func() error {
		_, err := srv.TopK(id, "", 10, 0)
		return err
	})
	if err != nil {
		return err
	}
	r.latency = time.Since(due)
	r.query = q
	sum, ok := q.Result["checksum"].(string)
	if !ok {
		return fmt.Errorf("query %d has no result checksum", id)
	}
	r.checksum = sum
	return nil
}

// checkServed runs every distinct request directly on the engine and
// requires each served answer, cache hits and coalesced ones included,
// to carry the direct run's checksum. The direct BFS levels are in turn
// checked against the queue-BFS reference, and the direct PageRank
// scores against the float64 reference.
func checkServed(o *outcome, sub *substrate, results []served, scale, epv int, seed uint64) {
	type key struct{ algo, params string }
	// Each distinct request runs directly once, on the engine the server
	// ran it on; answers served from the cache or coalesced name none.
	engine := map[key]string{}
	for i := range results {
		r := &results[i]
		k := key{r.req.Algo, string(r.req.Params)}
		if r.err == nil && r.query.Cache == "" {
			engine[k] = r.query.Stats.Engine
		}
	}
	eng := sub.engines["rmat"]
	ref := newRefGraph(scale, epv, seed)
	direct := map[key]string{}
	var hits, coalesced int
	for i := range results {
		r := &results[i]
		if r.err != nil {
			continue
		}
		switch r.query.Cache {
		case "hit":
			hits++
		case "coalesced":
			coalesced++
		}
		k := key{r.req.Algo, string(r.req.Params)}
		want, ok := direct[k]
		if !ok {
			var err error
			want, err = runDirect(eng, ref, r.req, engine[k], o)
			if err != nil {
				o.check(false, "direct %s %s: %v", r.req.Algo, r.req.Params, err)
				continue
			}
			direct[k] = want
		}
		o.check(r.checksum == want, "request %d (%s %s, cache=%q): served checksum %s != direct %s", i, r.req.Algo, r.req.Params, r.query.Cache, r.checksum, want)
	}
	o.note("served answers matched %d direct runs (%d cache hits, %d coalesced)", len(direct), hits, coalesced)
}

// runDirect runs req on the engine kind named (vertex when empty) and
// checks the answer against the independent reference where one
// exists. It returns the result checksum.
func runDirect(eng *flashgraph.Engine, ref *refGraph, req flashgraph.Request, kind string, o *outcome) (string, error) {
	var prog interface {
		flashgraph.Program
		Result() *flashgraph.ResultSet
	}
	var check func()
	switch req.Algo {
	case "bfs":
		var p flashgraph.SrcParams
		if err := flashgraph.DecodeParams(req.Params, &p); err != nil {
			return "", err
		}
		b := flashgraph.NewBFS(p.Src)
		prog = b
		check = func() {
			level, _ := ref.bfs(p.Src)
			o.check(hashLevels(b.Level) == hashLevels(level), "direct BFS from %d differs from the queue-BFS reference", p.Src)
		}
	case "labelprop":
		var p serve.LabelPropParams
		if err := flashgraph.DecodeParams(req.Params, &p); err != nil {
			return "", err
		}
		l := flashgraph.NewLabelProp()
		l.Iters = p.Iters
		prog = l
	case "pagerank":
		var p flashgraph.PageRankParams
		if err := flashgraph.DecodeParams(req.Params, &p); err != nil {
			return "", err
		}
		pr := flashgraph.NewPageRank()
		pr.Iters = p.Iters
		prog = pr
		check = func() {
			diff := maxAbsDiff(pr.Scores, ref.pageRankIters(p.Iters))
			o.check(diff <= prTolerance, "direct PageRank (%d iterations) differs from the float64 reference by %.3g", p.Iters, diff)
		}
	default:
		return "", fmt.Errorf("no direct form for %q", req.Algo)
	}
	k := flashgraph.EngineVertex
	if kind != "" {
		k = flashgraph.EngineKind(kind)
	}
	if _, err := eng.RunOn(k, prog); err != nil {
		return "", err
	}
	if check != nil {
		check()
	}
	return prog.Result().Checksum(), nil
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
