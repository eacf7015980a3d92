package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/apps/mrapps"
	"github.com/hamr-go/hamr/internal/bench"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/hdfs"
	"github.com/hamr-go/hamr/internal/mapreduce"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/vtime"
)

// workload is one benchmark input set and the job every client submits
// over it. Exactly one of graph (HAMR) and mrJob (MapReduce baseline) is
// set.
type workload struct {
	name    string
	clients int
	// data generates the input from the seed; reference computes the
	// expected output from it single-threaded.
	data      func(seed int64) []byte
	reference func(data []byte) (map[string]int64, error)
	graph     func(core.Loader) (*core.Graph, *core.CollectSink, error)
	mrJob     func(input, output string) mapreduce.Job
	// options adjusts the cluster beyond the DefaultSpec settings.
	options func(*cluster.Options)
}

func (w *workload) isMR() bool { return w.mrJob != nil }

// The workloads. Each runs on a DefaultSpec cluster (8 nodes x 4 workers)
// at SmallScale input sizes; no workload uses more than 2 client
// goroutines, so they fit a 2-CPU machine.
var workloads = []*workload{
	{
		// The paper's IO-intensive row: work sits in core (load, bins,
		// partial reduce), transport (shuffle) and storage (disk reads),
		// while hdfs, mapreduce, extsort and yarn stay idle.
		name: "hamr-wordcount", clients: 1,
		data: wordCountText, reference: referenceWordCount,
		graph: func(l core.Loader) (*core.Graph, *core.CollectSink, error) {
			return hamrapps.BuildWordCount(hamrapps.WordCountOptions{Loader: l})
		},
	},
	{
		// The same text through the MapReduce baseline with a combiner:
		// hdfs, mapreduce, extsort spill and merge, and yarn containers
		// do the work, the flowlet core stays idle. Write-heavy beside
		// hamr-wordcount's read-dominated path.
		name: "mr-wordcount", clients: 1,
		data: wordCountText, reference: referenceWordCount,
		mrJob: func(input, output string) mapreduce.Job {
			return mrapps.WordCountJob(input, output, true, bench.SmallScale().Reduces)
		},
	},
	{
		// Five hot keys make partial-reduce contention dominate core, and
		// two concurrent jobs exercise cluster admission, the loader-slot
		// fair share and per-job yarn grants.
		name: "hamr-ratings-x2", clients: 2,
		data: ratingsMovies, reference: referenceRatings,
		graph: func(l core.Loader) (*core.Graph, *core.CollectSink, error) {
			return hamrapps.BuildHistogramRatings(hamrapps.HistogramOptions{Loader: l})
		},
		options: func(o *cluster.Options) {
			o.MaxConcurrentJobs = 2
			o.YarnMemMB = 4096
			o.JobMemMB = o.YarnMemMB / 2
		},
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func wordCountText(seed int64) []byte {
	s := bench.SmallScale()
	return datagen.Text(datagen.TextConfig{Seed: seed, Vocabulary: s.WordCountVocab, Lines: s.WordCountLines})
}

// ratingsParts is how many independently seeded generator draws make up
// the hamr-ratings-x2 input. That job's time is set by the count of its
// hottest rating, and one draw of the generator's user profiles moves
// that count by up to a tenth between seeds (and the job time by more);
// the union of several draws, at the same total size and format, keeps
// the skew but steadies the hot share from seed to seed.
const ratingsParts = 8

func ratingsMovies(seed int64) []byte {
	s := bench.SmallScale()
	per := s.HistogramMovies / ratingsParts
	var out []byte
	for p := 0; p < ratingsParts; p++ {
		part := datagen.Movies(datagen.MoviesConfig{Seed: seed*ratingsParts + int64(p), Movies: per, Users: s.HistogramUsers})
		// Line i is movie i of its part; renumber so IDs stay unique.
		for i, line := range strings.Split(strings.TrimSuffix(string(part), "\n"), "\n") {
			_, ratings, _ := strings.Cut(line, ":")
			out = append(out, datagen.MovieID(p*per+i)...)
			out = append(out, ':')
			out = append(out, ratings...)
			out = append(out, '\n')
		}
	}
	return out
}

// referenceWordCount counts whitespace-separated words.
func referenceWordCount(data []byte) (map[string]int64, error) {
	out := make(map[string]int64)
	for _, w := range strings.Fields(string(data)) {
		out[w]++
	}
	return out, nil
}

// referenceRatings counts individual ratings by value over PUMA movie
// records "movie<ID>:u<user>_<rating>,...", one rating per (movie, user).
// It parses the format itself rather than through the program's parser.
func referenceRatings(data []byte) (map[string]int64, error) {
	out := make(map[string]int64)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		_, body, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("reference: movie record without ':': %q", line)
		}
		if body == "" {
			continue
		}
		seen := make(map[string]bool)
		for _, ent := range strings.Split(body, ",") {
			user, rating, ok := strings.Cut(ent, "_")
			if !ok || !strings.HasPrefix(user, "u") {
				return nil, fmt.Errorf("reference: bad rating %q", ent)
			}
			if seen[user] {
				continue
			}
			seen[user] = true
			r, err := strconv.Atoi(rating)
			if err != nil {
				return nil, fmt.Errorf("reference: bad rating %q: %w", ent, err)
			}
			out[strconv.Itoa(r)]++
		}
	}
	return out, nil
}

// compareOutput reports the first difference between a job's output and
// the reference.
func compareOutput(got, want map[string]int64) error {
	for k, v := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("output misses key %q", k)
		}
		if g != v {
			return fmt.Errorf("output[%q] = %d, want %d", k, g, v)
		}
	}
	if len(got) != len(want) {
		var extra []string
		for k := range got {
			if _, ok := want[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("output has %d unexpected keys, first %q", len(extra), extra[0])
	}
	return nil
}

// sinkOutput turns a HAMR job's collected pairs into a count map; a key
// emitted twice is an error.
func sinkOutput(pairs []core.KV) (map[string]int64, error) {
	out := make(map[string]int64, len(pairs))
	for _, kv := range pairs {
		v, ok := kv.Value.(int64)
		if !ok {
			return nil, fmt.Errorf("output[%q] has type %T, want int64", kv.Key, kv.Value)
		}
		if _, dup := out[kv.Key]; dup {
			return nil, fmt.Errorf("output key %q emitted twice", kv.Key)
		}
		out[kv.Key] = v
	}
	return out, nil
}

// readMROutput reads a MapReduce job's "key\tcount" part files back from
// HDFS.
func readMROutput(fs *hdfs.FileSystem, dir string) (map[string]int64, error) {
	files := fs.List(dir + "/")
	if len(files) == 0 {
		return nil, fmt.Errorf("no output files under %s", dir)
	}
	out := make(map[string]int64)
	for _, f := range files {
		data, err := fs.ReadFile(f, -1)
		if err != nil {
			return nil, fmt.Errorf("read back %s: %w", f, err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" {
				continue
			}
			k, v, ok := strings.Cut(line, "\t")
			if !ok {
				return nil, fmt.Errorf("%s: malformed line %q", f, line)
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: malformed count in %q", f, line)
			}
			if _, dup := out[k]; dup {
				return nil, fmt.Errorf("output key %q written twice", k)
			}
			out[k] = n
		}
	}
	return out, nil
}

// rig is one long-lived cluster with a workload's input ingested.
type rig struct {
	w     *workload
	c     *cluster.Cluster
	want  map[string]int64
	files map[int][]string // HAMR: node-local input files
	eng   *mapreduce.Engine
	input string // MR: HDFS input path
	seq   atomic.Int64
	// ingest is the time the input took to write; setup is cluster.New
	// plus ingest.
	ingest, setup time.Duration
}

// newRig builds a cluster for the workload with the given clock (nil for
// the real clock) and tracer (nil for none) and ingests the input.
func newRig(w *workload, data []byte, want map[string]int64, vc *vtime.VirtualClock, tr *trace.Tracer) (*rig, error) {
	spec := bench.DefaultSpec()
	disk, net := spec.Disk, spec.Net
	opts := cluster.Options{
		NumNodes:  spec.Nodes,
		Core:      spec.CoreConfig(),
		DiskModel: &disk,
		NetModel:  &net,
		Trace:     tr,
	}
	if vc != nil {
		opts.Clock = vc
	}
	if w.isMR() {
		opts.HDFSBlockSize = spec.HDFSBlockSize
	}
	if w.options != nil {
		w.options(&opts)
	}
	r := &rig{w: w, want: want}
	start := time.Now()
	c, err := cluster.New(opts)
	if err != nil {
		return nil, fmt.Errorf("%s: cluster: %w", w.name, err)
	}
	r.c = c
	ingestStart := time.Now()
	if w.isMR() {
		r.input = "in/" + w.name
		err = c.FS().WriteFile(r.input, data, -1)
		r.eng = mapreduce.NewEngine(c, spec.MapReduce)
	} else {
		r.files, err = hamrapps.DistributeLocalText(c, w.name, data, 2*spec.Nodes)
	}
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("%s: ingest: %w", w.name, err)
	}
	r.ingest = time.Since(ingestStart)
	r.setup = time.Since(start)
	return r, nil
}

func (r *rig) close() { r.c.Close() }

// jobRun is one job as a client saw it.
type jobRun struct {
	// wall is Submit until Wait returns (HAMR) or the Engine.Run call
	// (MR); output checks and cleanup are outside it.
	wall     time.Duration
	readback time.Duration // MR: reading the output back from HDFS
	res      *core.JobResult
	mr       *mapreduce.Result
	err      error // run error, refusal or wrong output
}

func (r *rig) runJob() jobRun {
	if r.w.isMR() {
		return r.runMR()
	}
	return r.runHAMR()
}

func (r *rig) runHAMR() jobRun {
	g, sink, err := r.w.graph(&hamrapps.LocalTextLoader{Files: r.files})
	if err != nil {
		return jobRun{err: err}
	}
	start := time.Now()
	h, err := r.c.Submit(context.Background(), g)
	if err != nil {
		// A refusal (cluster.ErrQueueFull) counts as a failed job.
		return jobRun{wall: time.Since(start), err: err}
	}
	res, err := h.Wait()
	run := jobRun{wall: time.Since(start), res: res, err: err}
	if err == nil {
		run.err = r.check(sinkOutput(sink.Pairs()))
	}
	return run
}

func (r *rig) runMR() jobRun {
	out := fmt.Sprintf("out/%d", r.seq.Add(1))
	start := time.Now()
	res, err := r.eng.Run(r.w.mrJob(r.input, out))
	run := jobRun{wall: time.Since(start), mr: res, err: err}
	if err == nil {
		rb := time.Now()
		got, rerr := readMROutput(r.c.FS(), out)
		run.readback = time.Since(rb)
		run.err = r.check(got, rerr)
	}
	for _, f := range r.c.FS().List(out + "/") {
		if err := r.c.FS().Remove(f); err != nil && run.err == nil {
			run.err = fmt.Errorf("remove output %s: %w", f, err)
		}
	}
	return run
}

func (r *rig) check(got map[string]int64, err error) error {
	if err != nil {
		return err
	}
	return compareOutput(got, r.want)
}

// diskUsed is the bytes stored on each node's local disk.
func (r *rig) diskUsed() []int64 {
	used := make([]int64, r.c.NumNodes())
	for i := range used {
		d := r.c.Disk(i)
		for _, f := range d.List("") {
			if n, err := d.Size(f); err == nil {
				used[i] += n
			}
		}
	}
	return used
}
