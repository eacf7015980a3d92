// Command perfbench is the repository benchmark. It drives HAMR and
// MapReduce-baseline jobs through their public entry points
// (cluster.Submit / JobHandle.Wait and mapreduce.Engine.Run) in closed
// loops on the real clock, checks every job's output against a
// single-threaded reference, and prints one JSON result as its last line
// of output. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload hamr-wordcount --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the diagnostic passes instead — layer counters from an untraced
// loop, a run with the span recorder attached, and one virtual-clock job
// — and reports the per-layer metrics. METRICS.md lists every metric and
// the end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/hamr-go/hamr/internal/vtime"
)

// setupReps is how many times a run builds the cluster and ingests the
// input; setup_s is their median.
const setupReps = 3

// result is the benchmark's output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// count adds jobs to the attempted and failed totals, logging failures.
func (res *result) count(runs ...jobRun) {
	for _, run := range runs {
		res.Attempted++
		if run.err != nil {
			res.Failed++
			if res.Failed <= 5 {
				fmt.Fprintln(os.Stderr, "perfbench: job failed:", run.err)
			}
		}
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: hamr-wordcount, mr-wordcount or hamr-ratings-x2")
	seed := flag.Int64("seed", 1, "seed for the generated input")
	seconds := flag.Float64("seconds", 30, "length of the measured phase in seconds")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer diagnostic metrics")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("--seconds must be positive")
	}
	if err == nil && *traceMode != 0 && *traceMode != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *traceMode == 1 {
		res, err = diagnose(w, *seed, d)
	} else {
		res, err = endToEnd(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// inputs generates the workload's input and its reference output.
func inputs(w *workload, seed int64) (data []byte, want map[string]int64, datagen, reference time.Duration, err error) {
	start := time.Now()
	data = w.data(seed)
	datagen = time.Since(start)
	start = time.Now()
	want, err = w.reference(data)
	reference = time.Since(start)
	return data, want, datagen, reference, err
}

// residue is how far the nodes' disk usage is from a baseline, in bytes.
func residue(r *rig, base []int64) int64 {
	var sum int64
	for i, u := range r.diskUsed() {
		d := u - base[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum
}

// endToEnd measures the end-to-end metrics: set-up, then one warm-up
// round, then the untraced closed loop on the real clock.
func endToEnd(w *workload, seed int64, d time.Duration) (*result, error) {
	data, want, _, _, err := inputs(w, seed)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var r *rig
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
		}
		if r, err = newRig(w, data, want, nil, nil); err != nil {
			return nil, err
		}
		setups = append(setups, r.setup.Seconds())
	}
	defer r.close()
	base := r.diskUsed()

	res := &result{Metrics: metricSet{}}
	res.count(runRound(r, w.clients)...)
	l := runLoop(r, w.clients, d)
	res.count(l.runs...)
	left := residue(r, base)
	if left != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d bytes left on the nodes' disks after the loop\n", left)
	}
	res.Correct = res.Failed == 0 && left == 0

	ok := float64(l.ok())
	times := walls(l.runs)
	tailV, tailP := tail(times)
	fmt.Printf("%s: %d jobs (%d failed) in %.1fs; job_tail_s is p%.1f of %d samples\n",
		w.name, len(l.runs), len(l.runs)-l.ok(), l.wall.Seconds(), tailP, len(times))
	ms := res.Metrics
	ms.set("setup_s", "s", median(setups))
	ms.set("job_p50_s", "s", median(times))
	ms.set("job_tail_s", "s", tailV)
	ms.set("jobs_per_s", "1/s", ok/l.wall.Seconds())
	ms.set("cpu_s_per_job", "s", ratio(l.cpu.Seconds(), ok))
	ms.set("alloc_mb_per_job", "MB", ratio(float64(l.alloc)/1e6, ok))
	ms.set("peak_rss_mb", "MB", float64(peakRSS())/1e6)
	return res, nil
}

// diagnose measures the per-layer metrics: counters over an untraced
// loop of half the run length, then the traced pass and the
// virtual-clock job, each on its own cluster. After its loop the
// untraced cluster runs the traced pass's rounds, as the baseline of
// trace.overhead_frac: job times fall over a process's first jobs
// (hamr-wordcount from about 1.25 s to 1.10 s), so the median of the
// loop, which starts them, would read as a negative overhead.
func diagnose(w *workload, seed int64, d time.Duration) (*result, error) {
	data, want, datagen, reference, err := inputs(w, seed)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: metricSet{}}
	ms := res.Metrics
	ms.set("bench.datagen_s", "s", datagen.Seconds())
	ms.set("bench.reference_s", "s", reference.Seconds())

	r, err := newRig(w, data, want, nil, nil)
	if err != nil {
		return nil, err
	}
	ingest := 0.0
	if w.isMR() {
		ingest = r.ingest.Seconds()
	}
	ms.set("hdfs.ingest_s", "s", ingest)
	base := r.diskUsed()
	res.count(runRound(r, w.clients)...)
	l := runLoop(r, w.clients, d/2)
	res.count(l.runs...)
	var plain []jobRun
	for i := 0; i < tracedRounds; i++ {
		plain = append(plain, runRound(r, w.clients)...)
	}
	res.count(plain...)
	left := residue(r, base)
	r.close()
	counterMetrics(l, ms)
	ms.set("storage.disk_residual_bytes", "bytes", float64(left))
	times := walls(l.runs)
	_, tailP := tail(times)
	ms.set("bench.jobs", "count", float64(len(times)))
	ms.set("bench.tail_pct", "pct", tailP)

	tp, err := tracedPass(w, data, want)
	if err != nil {
		return nil, err
	}
	res.count(tp.warmup...)
	res.count(tp.runs...)
	ms.set("trace.overhead_frac", "frac", ratio(median(walls(tp.runs)), median(walls(plain)))-1)
	jobs := float64(len(tp.runs))
	self := func(phase string) float64 { return tp.self[phase].Seconds() / jobs }
	// "reduce" spans come from whichever engine the workload runs.
	coreReduce, mrReduce := self("reduce"), 0.0
	if w.isMR() {
		coreReduce, mrReduce = 0, coreReduce
	}
	ms.set("core.load_self_s", "s", self("load"))
	ms.set("core.accumulate_self_s", "s", self("accumulate"))
	ms.set("core.reduce_self_s", "s", coreReduce)
	ms.set("core.partial_self_s", "s", self("partial"))
	ms.set("transport.deliver_self_s", "s", self("deliver"))
	ms.set("hdfs.read_self_s", "s", self("hdfs-read"))
	ms.set("mapreduce.startup_self_s", "s", self("startup"))
	ms.set("mapreduce.map_self_s", "s", self("map"))
	ms.set("mapreduce.fetch_self_s", "s", self("fetch"))
	ms.set("mapreduce.reduce_self_s", "s", mrReduce)
	ms.set("extsort.merge_self_s", "s", self("merge"))
	ms.set("yarn.wait_self_s", "s", self("yarn-wait"))
	critical := func(res string) float64 { return tp.critical[res].Seconds() / tracedRounds }
	ms.set("trace.critical_disk_s", "s", critical("disk"))
	ms.set("trace.critical_net_s", "s", critical("net"))
	ms.set("trace.critical_cpu_s", "s", critical("cpu"))
	ms.set("trace.critical_startup_s", "s", critical("startup"))
	ms.set("trace.critical_idle_s", "s", critical("(idle)"))

	run, modeled, busy, err := vclockPass(w, data, want)
	if err != nil {
		return nil, err
	}
	res.count(run)
	ms.set("vtime.modeled_s", "s", modeled.Seconds())
	for _, r := range []vtime.Resource{vtime.Disk, vtime.Net, vtime.CPU, vtime.Startup, vtime.Contention} {
		ms.set("vtime."+r.String()+"_busy_s", "s", busy[r].Seconds())
	}
	ms.set("bench.job_fail_frac", "frac", ratio(float64(res.Failed), float64(res.Attempted)))
	res.Correct = res.Failed == 0 && left == 0
	return res, nil
}
