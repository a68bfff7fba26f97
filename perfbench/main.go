// Command perfbench is FlashGraph's end-to-end benchmark. One process
// runs one workload by name:
//
//	perfbench --workload sweep|traverse|serve --seed N --seconds S --trace 0|1
//
// and prints, as the last line of standard output, one JSON object with
// the operations attempted and failed, whether every correctness check
// passed, and the metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. A human-readable report goes to
// standard error; a traced run also writes its spans to
// .bench_build/traces/. See README.md for the workloads, the metrics
// and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports, with
// their units; BENCHMARK.json declares the same names. Both timings are
// processor time of the benchmark process, not wall time: see rusage.go.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"op_cpu_ms", "ms"},
}

// perLayer lists the per-layer metrics a traced run reports, with their
// units. A layer a workload does not exercise reads 0 there.
var perLayer = []struct{ name, unit string }{
	// ingest: streaming build, re-encode, load into SAFS.
	{"ingest.build_s", "s"},
	{"ingest.edges_per_s", "1/s"},
	{"ingest.spills", "count"},
	{"graph.load_s", "s"},
	{"graph.reencode_s", "s"},
	// graph: record decode outside the engine.
	{"graph.decode_ns_per_edge", "ns"},
	// core: the vertex engine's message passing and scheduling.
	{"core.messages", "count"},
	{"core.allocs_per_message", "count"},
	{"core.alloc_mb", "MiB"},
	{"core.compute_s", "s"},
	{"core.io_wait_s", "s"},
	{"core.steals", "count"},
	// spmv: the streaming engine.
	{"spmv.stripe_reads", "count"},
	{"spmv.read_mb", "MiB"},
	// safs: edge-list requests and merging.
	{"safs.edge_requests", "count"},
	{"safs.merged_requests", "count"},
	{"safs.merge_ratio", "ratio"},
	// pagecache.
	{"pagecache.hits", "count"},
	{"pagecache.misses", "count"},
	{"pagecache.hit_ratio", "ratio"},
	{"pagecache.evictions", "count"},
	// ssd: the device array (busy time is simulated, never wall time).
	{"ssd.reads", "count"},
	{"ssd.read_mb", "MiB"},
	{"ssd.coalesced", "count"},
	{"ssd.queue_peak", "count"},
	{"ssd.busy_s", "s"},
	// serve, result, qos.
	{"serve.submit_us", "us"},
	{"serve.queue_wait_ms.interactive", "ms"},
	{"serve.queue_wait_ms.analytic", "ms"},
	{"serve.queue_wait_ms.batch", "ms"},
	{"serve.exec_ms.interactive", "ms"},
	{"result.topk_us", "us"},
	{"qos.cache_hits", "count"},
	{"qos.coalesced", "count"},
	{"qos.hit_ratio", "ratio"},
	// load generator and Go runtime.
	{"loadgen.late_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	// Each workload's own operations, timed under tracing; the wall-time
	// medians stand beside the processor-time end-to-end metrics.
	{"op.wall_p50_ms", "ms"},
	{"op.setup_wall_s", "s"},
	{"op.pagerank_s", "s"},
	{"op.wcc_s", "s"},
	{"op.spmv_pagerank_s", "s"},
	{"op.bfs_tail_ms", "ms"},
	{"op.bfs_mteps", "1/s"},
	{"op.interactive_tail_ms", "ms"},
	{"op.analytic_p50_ms", "ms"},
	{"op.batch_p50_ms", "ms"},
	// Span attribution: each layer's self time and the remainder.
	{"self.ingest_s", "s"},
	{"self.graph_s", "s"},
	{"self.core_s", "s"},
	{"self.spmv_s", "s"},
	{"self.serve_s", "s"},
	{"self.result_s", "s"},
	{"self.unattributed_s", "s"},
	{"trace.unattributed_share", "ratio"},
	{"trace.spans", "count"},
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// tiny shrinks every input for the self-test.
	tiny bool
	// root holds the run's work directory and traces.
	root string
	// workDir holds the run's images and device files.
	workDir string
}

// outcome is what a workload hands back: operation counts, the
// correctness verdict with its reasons, and the metrics it measured.
// e2e holds the end-to-end metrics, layer the per-layer ones, and info
// the workload's named figures for the human report.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e, layer        map[string]float64
	info              []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records a failed correctness check.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.info = append(o.info, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(cfg config, tr *tracer) (*outcome, error){
	"sweep":    runSweep,
	"traverse": runTraverse,
	"serve":    runServe,
}

func main() {
	workload := flag.String("workload", "", "workload name: sweep, traverse or serve")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	traceOn := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload sweep|traverse|serve, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceOn == 1,
		root:     ".bench_build",
	}
	rep, err := execute(cfg, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload in a scratch directory under cfg.root and
// assembles its report.
func execute(cfg config, run func(config, *tracer) (*outcome, error)) (*report, error) {
	base := filepath.Join(cfg.root, "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir

	tr := &tracer{on: cfg.trace, t0: time.Now()}
	out, err := run(cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep := &report{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if cfg.trace {
		for k, v := range tr.selfTimes() {
			out.layer[k] = v
		}
		for _, m := range perLayer {
			rep.Metrics[m.name] = metric{out.layer[m.name], m.unit}
		}
		path, err := tr.write(cfg)
		if err != nil {
			return nil, err
		}
		out.note("spans written to %s", path)
	} else {
		for _, m := range endToEnd {
			v, ok := out.e2e[m.name]
			if !ok {
				return nil, fmt.Errorf("%s: metric %s not measured", cfg.workload, m.name)
			}
			rep.Metrics[m.name] = metric{v, m.unit}
		}
	}
	printHuman(cfg, out, rep)
	return rep, nil
}

// printHuman writes the readable report to standard error.
func printHuman(cfg config, out *outcome, rep *report) {
	w := os.Stderr
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%.0f trace=%v\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	for _, s := range out.info {
		fmt.Fprintf(w, "#   %s\n", s)
	}
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "#   %-34s %14.4f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	if cfg.trace {
		// The same end-to-end figures under tracing; against an untraced
		// run they give the tracing overhead (steady.py reports it).
		e2e, _ := json.Marshal(out.e2e)
		fmt.Fprintf(w, "# traced-e2e %s\n", e2e)
	}
	fmt.Fprintf(w, "#   attempted=%d failed=%d correct=%v\n", rep.Attempted, rep.Failed, rep.Correct)
	if len(out.problems) > 0 {
		fmt.Fprintf(w, "#   CHECK FAILED:\n#     %s\n", strings.Join(out.problems, "\n#     "))
	}
}
