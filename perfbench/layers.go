package main

import (
	"sort"
	"sync"
	"time"

	"github.com/hamr-go/hamr/internal/bench"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/vtime"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// ratio is num/den, 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics maps one closed-loop phase's counters to per-job layer
// metrics: job-scoped counters from JobResult.Metrics, substrate counters
// as cluster-registry deltas, yarn and admission counters from their
// stats APIs. Cluster-level deltas are divided by the jobs the phase ran,
// which on hamr-ratings-x2 spreads the two clients' overlap evenly.
func counterMetrics(l loop, ms metricSet) {
	n := float64(len(l.runs))
	delta := func(name string) float64 {
		return ratio(float64(l.after.cluster.Get(name)-l.before.cluster.Get(name)), n)
	}
	var hamrJobs, stalls, contention, queueWait float64
	job := make(map[string]float64)
	var mapTasks, reduceTasks, mrJobs, readback float64
	for _, run := range l.runs {
		if run.res != nil {
			hamrJobs++
			stalls += float64(run.res.Stalls)
			contention += run.res.Metrics.Timers["partial.contention"].Seconds()
			queueWait += (run.wall - run.res.Duration).Seconds()
			for _, name := range []string{"loader.splits", "bins.sent", "bins.recv", "shuffle.kvs", "shuffle.bytes", "flow.gated", "flowlet.refires"} {
				job[name] += float64(run.res.Metrics.Get(name))
			}
		}
		if run.mr != nil {
			mrJobs++
			mapTasks += float64(run.mr.MapTasks)
			reduceTasks += float64(run.mr.ReduceTasks)
			readback += run.readback.Seconds()
		}
	}
	perHAMR := func(v float64) float64 { return ratio(v, hamrJobs) }

	ms.set("core.loader_splits", "count", perHAMR(job["loader.splits"]))
	ms.set("core.bins_sent", "count", perHAMR(job["bins.sent"]))
	ms.set("core.bins_recv", "count", perHAMR(job["bins.recv"]))
	ms.set("core.shuffle_kvs", "count", perHAMR(job["shuffle.kvs"]))
	ms.set("core.shuffle_bytes", "bytes", perHAMR(job["shuffle.bytes"]))
	ms.set("core.flow_gated", "count", perHAMR(job["flow.gated"]))
	// Base: bins received; only remote bins can be gated.
	ms.set("core.gated_frac", "frac", ratio(job["flow.gated"], job["bins.recv"]))
	ms.set("core.stalls", "count", perHAMR(stalls))
	ms.set("core.refires", "count", perHAMR(job["flowlet.refires"]))
	ms.set("core.bins_dropped", "count", delta("bins.dropped"))
	ms.set("core.partial_contention_s", "s", perHAMR(contention))

	ms.set("transport.net_msgs", "count", delta("net.msgs"))
	ms.set("transport.net_bytes", "bytes", delta("net.bytes"))
	ms.set("transport.net_dropped", "count", delta("net.dropped"))

	ms.set("storage.disk_read_bytes", "bytes", delta("disk.read.bytes"))
	ms.set("storage.disk_write_bytes", "bytes", delta("disk.write.bytes"))
	ms.set("storage.disk_read_ops", "count", delta("disk.read.ops"))
	ms.set("storage.disk_write_ops", "count", delta("disk.write.ops"))

	local, remote := delta("hdfs.bytes.local"), delta("hdfs.bytes.remote")
	ms.set("hdfs.bytes_local", "bytes", local)
	ms.set("hdfs.bytes_remote", "bytes", remote)
	// Base: all HDFS block bytes read (local + remote).
	ms.set("hdfs.local_frac", "frac", ratio(local, local+remote))
	ms.set("hdfs.failover_reads", "count", delta("hdfs.failover.reads"))
	ms.set("hdfs.readback_s", "s", ratio(readback, mrJobs))

	mapLocal, mapRemote := delta("mr.map.local"), delta("mr.map.remote")
	ms.set("mapreduce.map_tasks", "count", ratio(mapTasks, mrJobs))
	ms.set("mapreduce.reduce_tasks", "count", ratio(reduceTasks, mrJobs))
	// Base: all map tasks launched (data-local + remote).
	ms.set("mapreduce.map_local_frac", "frac", ratio(mapLocal, mapLocal+mapRemote))
	ms.set("mapreduce.shuffle_bytes", "bytes", delta("mr.shuffle.bytes"))

	ms.set("extsort.spills", "count", delta("mr.spills"))
	ms.set("extsort.spill_bytes", "bytes", delta("mr.spill.bytes"))

	ms.set("yarn.granted", "count", ratio(float64(l.after.granted-l.before.granted), n))
	ms.set("yarn.waited", "count", ratio(float64(l.after.waited-l.before.waited), n))

	ms.set("cluster.queue_wait_s", "s", perHAMR(queueWait))
	ms.set("cluster.rejected", "count", float64(l.after.rejected-l.before.rejected))
}

// selfTimes sums, per phase, each span's duration minus the part of it
// that its child spans cover.
func selfTimes(evs []*trace.Event) map[string]time.Duration {
	children := make(map[string][]*trace.Event)
	for _, ev := range evs {
		if !ev.Instant && ev.Parent != "" {
			children[ev.Parent] = append(children[ev.Parent], ev)
		}
	}
	out := make(map[string]time.Duration)
	for _, ev := range evs {
		if !ev.Instant {
			out[ev.Phase] += ev.Dur - covered(ev, children[ev.ID])
		}
	}
	return out
}

// covered is the length of the union of the kids' intervals within p.
func covered(p *trace.Event, kids []*trace.Event) time.Duration {
	type span struct{ lo, hi time.Duration }
	var ivs []span
	for _, k := range kids {
		lo, hi := max(k.Begin, p.Begin), min(k.Begin+k.Dur, p.Begin+p.Dur)
		if hi > lo {
			ivs = append(ivs, span{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end time.Duration
	for _, iv := range ivs {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// tracedRounds is how many rounds the traced pass runs; a round is one
// job per client, submitted together.
const tracedRounds = 3

// traced is the outcome of the traced pass.
type traced struct {
	warmup   []jobRun                 // the untimed first round
	runs     []jobRun                 // the tracedRounds timed rounds
	self     map[string]time.Duration // summed over the timed rounds
	critical map[string]time.Duration // critical-path split, summed over rounds
}

// tracedPass attaches the trace recorder to a fresh cluster, runs a
// warm-up round as the timed run does, then tracedRounds rounds. Self
// times come from the spans that begin in the timed rounds; each round's
// critical path from the spans that begin inside that round's window.
func tracedPass(w *workload, data []byte, want map[string]int64) (traced, error) {
	t0 := time.Now()
	tr := trace.New(bench.DefaultSpec().Nodes, vtime.Real())
	r, err := newRig(w, data, want, nil, tr)
	if err != nil {
		return traced{}, err
	}
	defer r.close()
	out := traced{warmup: runRound(r, w.clients), critical: make(map[string]time.Duration)}
	// Window bounds are offsets from t0, taken just before the tracer's
	// epoch; the first gets a millisecond of slack for the difference.
	bounds := []time.Duration{time.Since(t0) - time.Millisecond}
	for i := 0; i < tracedRounds; i++ {
		out.runs = append(out.runs, runRound(r, w.clients)...)
		bounds = append(bounds, time.Since(t0))
	}
	evs := tr.Events()
	var timed []*trace.Event
	for i := 1; i < len(bounds); i++ {
		var in []*trace.Event
		for _, ev := range evs {
			if ev.Begin >= bounds[i-1] && ev.Begin < bounds[i] {
				in = append(in, ev)
			}
		}
		timed = append(timed, in...)
		for res, d := range trace.ResourceBreakdown(trace.CriticalPath(in)) {
			out.critical[res] += d
		}
	}
	out.self = selfTimes(timed)
	return out, nil
}

// runRound submits one job per client at once and waits for all.
func runRound(r *rig, clients int) []jobRun {
	runs := make([]jobRun, clients)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i] = r.runJob()
		}()
	}
	wg.Wait()
	return runs
}

// vclockPass runs one job on a cluster driven by a virtual clock and
// returns it with its modeled duration and the modeled busy time per
// resource it added (summed over nodes). The error is for set-up only;
// a failed job is reported in the returned run.
func vclockPass(w *workload, data []byte, want map[string]int64) (jobRun, time.Duration, map[vtime.Resource]time.Duration, error) {
	vc := vtime.NewVirtual(bench.DefaultSpec().Nodes)
	// As in the paper harness: task-startup charges keep a real hold,
	// which is what spreads sibling container grants across nodes.
	vc.SetRealHold(vtime.Startup, true)
	r, err := newRig(w, data, want, vc, nil)
	if err != nil {
		return jobRun{}, 0, nil, err
	}
	defer r.close()
	busy0 := make(map[vtime.Resource]time.Duration)
	for _, res := range vtime.Resources() {
		busy0[res] = vc.Busy(res)
	}
	mark := vc.Mark()
	run := r.runJob()
	modeled := vc.Since(mark)
	busy := make(map[vtime.Resource]time.Duration)
	for _, res := range vtime.Resources() {
		busy[res] = vc.Busy(res) - busy0[res]
	}
	return run, modeled, busy, nil
}
