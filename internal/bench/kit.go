package bench

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/apps/mrapps"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/mapreduce"
	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/transport"
	"github.com/hamr-go/hamr/internal/vtime"
)

// The invariance kit: fixed workloads that pin both engines' outputs and
// byte counters while default-off knobs (cache, compression, tracing, the
// virtual clock) change how the work is paid for. TestInvariance runs
// them under every profile; cmd/sortprobe and cmd/traceprobe print them.
//
// Every kit cluster uses zero-delay cost-counting disks, so byte counters
// move but no modeled delay is charged. Three workload families keep the
// configurations their golden values were captured with:
//
//   - the sort family (SortWordCount, SortTeraSort, SortReduceSpill)
//     drives every spill/sort/merge path over 4 KiB HDFS blocks;
//   - the shuffle family (MRWordCount, MRTeraSort, MRPageRank,
//     HAMRWordCount) moves the most bytes across disk and fabric;
//   - the cache family (CachePageRank, CacheKMeans) rereads its inputs
//     across chained jobs, which is what the block cache is for.

// Profile selects the default-off knobs a kit run turns on. The zero
// Profile is the all-off, real-clock path.
type Profile struct {
	// CacheMB is the per-node HDFS block cache budget (0 = off).
	CacheMB int
	// Codec enables block compression on both sites, spill and shuffle
	// ("" = off).
	Codec string
	// VClock pays modeled delays on a virtual clock. Task-startup charges
	// keep a real hold: the hold is what spreads reduce placement.
	VClock bool
	// Trace attaches a span recorder stamping from the run's clock.
	Trace bool
}

// KitRun is one finished kit workload. Its cluster stays open so the
// caller can read counters before or after hashing the output; Close
// releases it.
type KitRun struct {
	C      *cluster.Cluster
	Tracer *trace.Tracer
	hash   func() (string, error)
}

// Hash returns the run's output identity. For HDFS outputs it reads the
// output back, which charges disk.read.bytes, so golden counter lines
// depend on whether they were taken before or after it.
func (r *KitRun) Hash() (string, error) { return r.hash() }

// Counters renders the named counters as "name=value" pairs.
func (r *KitRun) Counters(names ...string) string { return counterLine(r.C.Metrics(), names) }

// Counter returns one counter's value.
func (r *KitRun) Counter(name string) int64 { return r.C.Metrics().Counter(name).Value() }

// Close shuts the run's cluster down.
func (r *KitRun) Close() { r.C.Close() }

// counterLine renders the named counters of reg as "name=value" pairs.
func counterLine(reg *metrics.Registry, names []string) string {
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", n, reg.Counter(n).Value()))
	}
	return strings.Join(parts, " ")
}

// hashHDFS hashes every file under prefix, names included, in listing
// order.
func hashHDFS(c *cluster.Cluster, prefix string) (string, error) {
	h := sha256.New()
	for _, name := range c.FS().List(prefix) {
		data, err := c.FS().ReadFile(name, -1)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n", name)
		h.Write(data)
	}
	return hex16(h.Sum(nil)), nil
}

// hashPairs identifies a flowlet job's sorted sink output.
func hashPairs(pairs []core.KV) string {
	h := sha256.New()
	for _, kv := range pairs {
		fmt.Fprintf(h, "%s=%v\n", kv.Key, kv.Value)
	}
	return fmt.Sprintf("pairs=%d output=%s", len(pairs), hex16(h.Sum(nil)))
}

func hex16(sum []byte) string { return fmt.Sprintf("%x", sum)[:16] }

// newKitCluster builds a kit cluster. yarnMB 0 keeps the cluster default;
// the shuffle and cache families oversize it so every task lands on its
// preferred node.
func newKitCluster(p Profile, nodes int, blockSize int64, yarnMB int, coreCfg core.Config) (*cluster.Cluster, *trace.Tracer, error) {
	opts := cluster.Options{
		NumNodes:      nodes,
		Core:          coreCfg,
		DiskModel:     &storage.CostModel{},
		HDFSBlockSize: blockSize,
		YarnMemMB:     yarnMB,
		HDFSCacheMB:   p.CacheMB,
	}
	if p.Codec != "" {
		opts.CompressSpill = true
		opts.CompressShuffle = true
		opts.CompressCodec = p.Codec
	}
	clk := vtime.Clock(vtime.Real())
	if p.VClock {
		vc := vtime.NewVirtual(nodes).SetRealHold(vtime.Startup, true)
		opts.Clock = vc
		clk = vc
	}
	var tr *trace.Tracer
	if p.Trace {
		tr = trace.New(nodes, clk)
		opts.Trace = tr
	}
	c, err := cluster.New(opts)
	return c, tr, err
}

// kitMR is one baseline-engine kit workload.
type kitMR struct {
	nodes     int
	blockSize int64
	yarnMB    int
	input     string
	data      []byte
	node      transport.NodeID // HDFS placement of the input's blocks (-1 = spread)
	cfg       mapreduce.Config
	job       mapreduce.Job
}

func (p Profile) runMR(w kitMR) (*KitRun, error) {
	c, tr, err := newKitCluster(p, w.nodes, w.blockSize, w.yarnMB, core.Config{})
	if err != nil {
		return nil, err
	}
	if err := c.FS().WriteFile(w.input, w.data, w.node); err != nil {
		c.Close()
		return nil, err
	}
	if _, err := mapreduce.NewEngine(c, w.cfg).Run(w.job); err != nil {
		c.Close()
		return nil, err
	}
	return &KitRun{C: c, Tracer: tr, hash: func() (string, error) {
		return hashHDFS(c, w.job.Output+"/")
	}}, nil
}

// runHAMR runs a WordCount graph (loader, split, full reduce, sink) on
// the flowlet engine over text spread in parts across the nodes' local
// disks as input/wc-part-NNNN. name is the graph name, which appears in
// traces.
func (p Profile) runHAMR(nodes int, blockSize int64, yarnMB int, coreCfg core.Config, name string, text []byte, parts int) (*KitRun, error) {
	c, tr, err := newKitCluster(p, nodes, blockSize, yarnMB, coreCfg)
	if err != nil {
		return nil, err
	}
	pairs, err := func() ([]core.KV, error) {
		files, err := hamrapps.DistributeLocalText(c, "wc", text, parts)
		if err != nil {
			return nil, err
		}
		g := core.NewGraph(name)
		sink := core.NewCollectSink()
		ld, _ := g.AddLoader("load", &hamrapps.LocalTextLoader{Files: files})
		mp, _ := g.AddMap("split", hamrapps.SplitWords{})
		rd, _ := g.AddReduce("count", sumFlowlet{})
		sk, _ := g.AddSink("out", sink)
		for _, e := range [][2]int{{ld, mp}, {mp, rd}, {rd, sk}} {
			if err := g.Connect(e[0], e[1]); err != nil {
				return nil, err
			}
		}
		if _, err := c.Run(g); err != nil {
			return nil, err
		}
		return sink.Sorted(), nil
	}()
	if err != nil {
		c.Close()
		return nil, err
	}
	out := hashPairs(pairs)
	return &KitRun{C: c, Tracer: tr, hash: func() (string, error) { return out, nil }}, nil
}

// ---- sort family ----

// SortWordCount drives the map-side sort buffer hard: a 1 KiB sort buffer
// forces many spills per map task and MergeFactor 2 forces multi-pass
// merging. The combiner variant must produce the same output.
func (p Profile) SortWordCount(combiner bool) (*KitRun, error) {
	return p.runMR(kitMR{
		nodes: 3, blockSize: 4 << 10,
		input: "in/corpus.txt", data: sortCorpus(800), node: -1,
		cfg: mapreduce.Config{SortBufferBytes: 1 << 10, MergeFactor: 2, DefaultReduces: 3},
		job: wordCountJob(combiner),
	})
}

// SortTeraSort exercises the reduce-side external merge: a small reduce
// heap pushes the fetched segments past heap/2 so the reduce tasks merge
// from disk.
func (p Profile) SortTeraSort() (*KitRun, error) {
	return p.runMR(kitMR{
		nodes: 3, blockSize: 4 << 10,
		input: "in/tera.txt", data: teraLines(3000), node: -1,
		cfg: mapreduce.Config{
			SortBufferBytes: 4 << 10, MergeFactor: 3, DefaultReduces: 2,
			ReduceHeapBytes: 32 << 10,
		},
		job: teraSortJob(),
	})
}

// SortReduceSpill drives the flowlet engine's reduce accumulator past a
// tiny memory budget so every node spills sorted runs and merges them
// back. Its input is four local files, input/wc-part-0000..0003.
func (p Profile) SortReduceSpill() (*KitRun, error) {
	return p.runHAMR(2, 4<<10, 0, core.Config{MemoryBudget: 4 << 10}, "spillwc", sortCorpus(600), 4)
}

// sortCorpus builds a deterministic multi-line text over a 16-word
// vocabulary, so runs hold many repeats of few keys.
func sortCorpus(lines int) []byte {
	words := []string{
		"ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen",
		"ibis", "jay", "kite", "lark", "mole", "newt", "owl", "pika",
	}
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		for j := 0; j < 8; j++ {
			sb.WriteString(words[(i*13+j*5)%len(words)])
			sb.WriteByte(' ')
		}
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// ---- shuffle family ----

// kitTaskStartup holds every container for a beat after allocation.
// Without it a tiny reduce task can finish and release its container
// before its sibling goroutines even reach YARN, so the least-loaded
// scheduler sees an empty cluster each time and stacks all reduces on
// node 0, zeroing the shuffle the net.bytes checks divide by. A 2 ms hold
// makes the allocations overlap, which spreads the reduces across nodes.
const kitTaskStartup = 2 * time.Millisecond

// Shuffle-family block sizes keep the map count small: each map's line
// iterator reads up to 1 MiB of slack past its split, so tiny blocks
// would multiply HDFS read traffic until it drowns the shuffle bytes.
const shuffleBlock = 64 << 10

// MRWordCount runs WordCount over the Zipfian corpus with a 4 KiB sort
// buffer: map-side spills dominate the disk bytes.
func (p Profile) MRWordCount() (*KitRun, error) {
	return p.runMR(kitMR{
		nodes: 3, blockSize: shuffleBlock, yarnMB: 1 << 20,
		input: "in/corpus.txt", data: zipfCorpus(), node: -1,
		cfg: mapreduce.Config{
			SortBufferBytes: 4 << 10, MergeFactor: 2, DefaultReduces: 3,
			TaskStartup: kitTaskStartup,
		},
		job: wordCountJob(false),
	})
}

// MRTeraSort is the reduce-side external merge at shuffle scale. All
// input blocks sit on node 0, so the maps run local and net.bytes is the
// shuffle.
func (p Profile) MRTeraSort() (*KitRun, error) {
	return p.runMR(kitMR{
		nodes: 3, blockSize: shuffleBlock, yarnMB: 1 << 20,
		input: "in/tera.txt", data: teraLines(12000), node: 0,
		cfg: mapreduce.Config{
			SortBufferBytes: 8 << 10, MergeFactor: 3, DefaultReduces: 3,
			ReduceHeapBytes: 32 << 10, TaskStartup: kitTaskStartup,
		},
		job: teraSortJob(),
	})
}

// MRPageRank runs the chained PageRank workload (2 iterations = 4 chained
// jobs) with a spill-heavy configuration, so run files dominate the disk
// traffic next to the HDFS materializations. Its hash covers the final
// rank files and the rank count.
func (p Profile) MRPageRank() (*KitRun, error) {
	c, tr, err := newKitCluster(p, 3, shuffleBlock, 1<<20, core.Config{})
	if err != nil {
		return nil, err
	}
	res, err := runPageRank(c, 2500, mapreduce.Config{
		SortBufferBytes: 8 << 10, MergeFactor: 3, DefaultReduces: 1,
		TaskStartup: kitTaskStartup,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	return &KitRun{C: c, Tracer: tr, hash: func() (string, error) {
		out, err := hashHDFS(c, "work/iter01-rank/")
		ranks := sha256.Sum256([]byte(fmt.Sprintf("ranks=%d\n", len(res.Ranks))))
		return out + "/" + hex16(ranks[:])[:8], err
	}}, nil
}

// HAMRWordCount runs WordCount on the flowlet engine over the Zipfian
// corpus: shuffle bins cross the fabric through the coalescer and a tight
// memory budget makes the reduce accumulators spill. A long coalescer age
// keeps batch boundaries size-driven, because timer flushes land at
// schedule-dependent points. name is the graph name.
func (p Profile) HAMRWordCount(name string) (*KitRun, error) {
	return p.runHAMR(3, shuffleBlock, 1<<20, core.Config{
		MemoryBudget: 4 << 10,
		CoalesceAge:  50 * time.Millisecond,
	}, name, zipfCorpus(), 6)
}

// zipfCorpus is the Zipfian text the paper's WordCount input follows.
func zipfCorpus() []byte {
	return datagen.Text(datagen.TextConfig{Seed: 11, Vocabulary: 800, WordsPerLine: 10, Lines: 2200})
}

// ---- cache family ----

// CachePageRank runs the chained PageRank workload over 4 KiB blocks:
// every iteration boundary is materialized in HDFS and reread by the next
// job's map phase. Its hash covers the final ranks as well as the files.
func (p Profile) CachePageRank() (*KitRun, error) {
	c, tr, err := newKitCluster(p, 3, 4<<10, 1<<20, core.Config{})
	if err != nil {
		return nil, err
	}
	res, err := runPageRank(c, 700, mapreduce.Config{SortBufferBytes: 8 << 10, MergeFactor: 4, DefaultReduces: 1})
	if err != nil {
		c.Close()
		return nil, err
	}
	return &KitRun{C: c, Tracer: tr, hash: func() (string, error) {
		out, err := hashHDFS(c, "work/iter01-rank/")
		return out + "/" + hashRanks(res.Ranks), err
	}}, nil
}

// CacheKMeans runs three K-Means iterations: each is one job that rereads
// the full input file and writes back k centroids.
func (p Profile) CacheKMeans() (*KitRun, error) {
	c, tr, err := newKitCluster(p, 3, 4<<10, 1<<20, core.Config{})
	if err != nil {
		return nil, err
	}
	lastOut, err := runKMeans(c)
	if err != nil {
		c.Close()
		return nil, err
	}
	return &KitRun{C: c, Tracer: tr, hash: func() (string, error) {
		return hashHDFS(c, lastOut+"/")
	}}, nil
}

func runPageRank(c *cluster.Cluster, pages int, cfg mapreduce.Config) (*mrapps.PageRankMRResult, error) {
	graph := datagen.WebGraph(datagen.WebGraphConfig{Seed: 7, Pages: pages})
	if err := c.FS().WriteFile("in/pagerank", graph, -1); err != nil {
		return nil, err
	}
	return mrapps.RunPageRankMR(mapreduce.NewEngine(c, cfg), c.FS(), "in/pagerank", "work", 2, 1)
}

// runKMeans runs the iterations and returns the last output directory.
// Clusters that produced no medoid keep their previous centroid.
func runKMeans(c *cluster.Cluster) (string, error) {
	const k = 3
	movies := datagen.Movies(datagen.MoviesConfig{Seed: 9, Movies: 2500, Users: 40, Clusters: k})
	if err := c.FS().WriteFile("in/kmeans", movies, -1); err != nil {
		return "", err
	}
	centroids := datagen.InitialCentroids(movies, k)
	eng := mapreduce.NewEngine(c, mapreduce.Config{SortBufferBytes: 16 << 10, MergeFactor: 4, DefaultReduces: 1})
	var lastOut string
	for it := 0; it < 3; it++ {
		lastOut = fmt.Sprintf("kout/iter%02d", it)
		if _, err := eng.Run(mrapps.KMeansJob("in/kmeans", lastOut, centroids, 1)); err != nil {
			return "", err
		}
		for _, f := range c.FS().List(lastOut + "/") {
			data, err := c.FS().ReadFile(f, -1)
			if err != nil {
				return "", err
			}
			for _, line := range strings.Split(string(data), "\n") {
				tab := strings.IndexByte(line, '\t')
				if tab <= 0 {
					continue
				}
				idx, err := strconv.Atoi(line[:tab])
				if err != nil || idx < 0 || idx >= k {
					return "", fmt.Errorf("bad centroid line %q", line)
				}
				if centroids[idx], err = hamrapps.ParseCentroid(line[tab+1:]); err != nil {
					return "", err
				}
			}
		}
	}
	return lastOut, nil
}

func hashRanks(ranks map[string]float64) string {
	keys := make([]string, 0, len(ranks))
	for k := range ranks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%.12g\n", k, ranks[k])
	}
	return hex16(h.Sum(nil))
}

// ---- shared jobs, mappers and inputs ----

// teraLines builds TeraSort-style rows: a deterministic pseudo-random
// 10-hex-digit key, a space and a fixed-width payload, one per line.
func teraLines(n int) []byte {
	var sb strings.Builder
	state := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		fmt.Fprintf(&sb, "%010x %08d-payload\n", state&0xFFFFFFFFFF, i)
	}
	return []byte(sb.String())
}

// wordCountJob is mrapps' WordCount under the job name the golden values
// were captured with.
func wordCountJob(combiner bool) mapreduce.Job {
	j := mrapps.WordCountJob("in/", "out", combiner, 0)
	j.Name = "wc"
	return j
}

func teraSortJob() mapreduce.Job {
	return mapreduce.Job{
		Name:          "tera",
		InputPrefixes: []string{"in/"},
		Output:        "tout",
		NewMapper:     func() mapreduce.Mapper { return teraMapper{} },
		NewReducer:    func() mapreduce.Reducer { return identityReducer{} },
	}
}

// teraMapper splits a teraLines row into its key and payload.
type teraMapper struct{}

func (teraMapper) Map(kv core.KV, out mapreduce.Emitter) error {
	line := kv.Value.(string)
	if line == "" {
		return nil
	}
	k, v, _ := strings.Cut(line, " ")
	return out.Emit(core.KV{Key: k, Value: v})
}

// identityReducer re-emits every value under its key.
type identityReducer struct{}

func (identityReducer) Reduce(key string, values []any, out mapreduce.Emitter) error {
	for _, v := range values {
		if err := out.Emit(core.KV{Key: key, Value: v}); err != nil {
			return err
		}
	}
	return nil
}

// sumFlowlet is the flowlet engine's full-reduce word count.
type sumFlowlet struct{}

func (sumFlowlet) Reduce(key string, values []any, ctx core.Context) error {
	var total int64
	for _, v := range values {
		total += v.(int64)
	}
	return ctx.Emit(core.KV{Key: key, Value: total})
}
