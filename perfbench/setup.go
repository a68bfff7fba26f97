package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"flashgraph"
)

// threads is the engine thread count, also the server's slot count:
// the benchmark keeps its load within the two cores it was tuned on.
var threads = min(2, runtime.NumCPU())

// setupReps is how many times a run sets up its substrate; setup_s is
// the median, and the last set-up substrate is the one measured.
const setupReps = 3

// graphSpec describes one seeded RMAT image a workload serves.
type graphSpec struct {
	name       string
	scale, epv int
	seed       uint64
	enc        flashgraph.Encoding
	// block also writes a block re-encoding, added as name+"-block".
	block bool
}

// substrate is one set-up catalog with its graphs.
type substrate struct {
	cat     *flashgraph.Catalog
	engines map[string]*flashgraph.Engine
	paths   map[string]string
	// hasOut marks the vertices of the first graph with an out-edge
	// other than a self-loop, read off the seeded stream as it is fed
	// to the builder.
	hasOut                   []bool
	build                    *flashgraph.BuildStats // the first graph's build
	buildS, reencodeS, loadS float64

	dir     string
	closers []func()
}

// close shuts the substrate down, last opened first, and deletes its
// files.
func (s *substrate) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.cat.Close()
	os.RemoveAll(s.dir)
}

// setupTime is the median of a run's set-ups, in processor time (the
// end-to-end setup_s) and in wall time.
type setupTime struct{ cpuS, wallS float64 }

// setUp builds the images and opens the catalog setupReps times,
// closing all but the last, and returns the last with the median
// set-up times. cacheBytes sizes the page cache from the first graph's
// edge-data bytes. open, when set, runs as the last set-up step.
func setUp(cfg config, tr *tracer, specs []graphSpec, cacheBytes func(dataBytes int64) int64, open func(*substrate) error) (*substrate, setupTime, error) {
	reps := setupReps
	if cfg.tiny {
		reps = 1
	}
	var cpu, wall []float64
	var sub *substrate
	for r := 0; r < reps; r++ {
		if sub != nil {
			sub.close()
		}
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", r))
		op := tr.begin("op.setup", int64(r), -1)
		start, cpu0 := time.Now(), cpuTime()
		s, err := setUpOnce(cfg, tr, op, dir, specs, cacheBytes, open)
		cpu = append(cpu, (cpuTime() - cpu0).Seconds())
		wall = append(wall, time.Since(start).Seconds())
		tr.end(op)
		if err != nil {
			return nil, setupTime{}, err
		}
		sub = s
	}
	return sub, setupTime{median(cpu), median(wall)}, nil
}

func setUpOnce(cfg config, tr *tracer, op int, dir string, specs []graphSpec, cacheBytes func(int64) int64, open func(*substrate) error) (*substrate, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &substrate{engines: map[string]*flashgraph.Engine{}, paths: map[string]string{}, dir: dir}
	type entry struct{ name, path string }
	var files []entry
	for i, sp := range specs {
		path := filepath.Join(dir, sp.name+".fg")
		stream := flashgraph.GenerateRMATStream(sp.scale, sp.epv, sp.seed)
		if i == 0 {
			s.hasOut = make([]bool, 1<<sp.scale)
			inner := stream
			stream = func(emit func(flashgraph.Edge) error) error {
				return inner(func(e flashgraph.Edge) error {
					if e.Src != e.Dst {
						s.hasOut[e.Src] = true
					}
					return emit(e)
				})
			}
		}
		span := tr.begin("ingest.build", 0, op)
		st, err := flashgraph.BuildGraphFile(path, stream, flashgraph.BuildOptions{
			NumVertices: 1 << sp.scale,
			Directed:    true,
			Encoding:    sp.enc,
			MemBytes:    buildMemBytes,
			TmpDir:      dir,
		})
		tr.end(span)
		if err != nil {
			return nil, err
		}
		s.buildS += st.Elapsed.Seconds()
		if i == 0 {
			s.build = st
		}
		files = append(files, entry{sp.name, path})
		if sp.block {
			span := tr.begin("graph.reencode", 0, op)
			start := time.Now()
			bpath := filepath.Join(dir, sp.name+"-block.fg")
			err := reencode(path, bpath)
			s.reencodeS += time.Since(start).Seconds()
			tr.end(span)
			if err != nil {
				return nil, err
			}
			files = append(files, entry{sp.name + "-block", bpath})
		}
	}
	s.cat = flashgraph.NewCatalog(flashgraph.Options{
		Threads:    threads,
		CacheBytes: cacheBytes(s.build.DataBytes),
		StoreDir:   filepath.Join(dir, "ssd"),
	})
	span := tr.begin("graph.load", 0, op)
	start := time.Now()
	for _, f := range files {
		eng, err := s.cat.AddFile(f.name, f.path)
		if err != nil {
			tr.end(span)
			s.close()
			return nil, err
		}
		s.engines[f.name] = eng
		s.paths[f.name] = f.path
	}
	s.loadS = time.Since(start).Seconds()
	tr.end(span)
	if open != nil {
		if err := open(s); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// buildMemBytes is the builder's sort budget: small enough that the
// sweep image spills sorted runs, so the external sort is exercised.
const buildMemBytes = 8 << 20

// reencode writes the image at src re-encoded into the block layout.
func reencode(src, dst string) error {
	g, err := flashgraph.OpenGraphFile(src)
	if err != nil {
		return err
	}
	defer g.Close()
	return g.SaveFileAs(dst, flashgraph.EncodingBlock)
}

// ingestMetrics fills the ingest and load metrics from the measured
// substrate.
func ingestMetrics(layer map[string]float64, s *substrate) {
	layer["ingest.build_s"] = s.buildS
	layer["ingest.edges_per_s"] = s.build.EdgesPerSec()
	layer["ingest.spills"] = float64(s.build.Spills)
	layer["graph.load_s"] = s.loadS
	layer["graph.reencode_s"] = s.reencodeS
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// tail returns the highest percentile with at least ten samples beyond
// it — the eleventh-largest sample — and that percentile; with fewer
// than eleven samples it returns 0, 0.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 11 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[n-11], 100 * float64(n-10) / float64(n)
}
