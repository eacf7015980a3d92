package bench

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/faults"
)

// TestInvariance runs the invariance kit under every default-off knob
// profile and checks that the knobs change what the work costs, never
// what it computes:
//
//   - cache/{real,vclock}: the block cache cuts disk reads on the
//     iterative chains without touching outputs, and the full counter
//     lines equal the golden ones on both clocks;
//   - compress/{lz,flate,lz-vclock}: each codec keeps outputs identical
//     while cutting disk and wire bytes by at least 30%;
//   - sort/{real,vclock}: the spill paths' output hashes, and spill runs
//     cleaned up after the merge;
//   - faults-concurrent: two WordCounts sharing one cluster recover the
//     fault-free output under seeded flowlet and message faults.
//
// Only counters that are schedule-independent are pinned exactly; the
// coalescer's frame counts and the MR shuffle's partition sizes depend
// on goroutine timing and are checked by ratio instead.
func TestInvariance(t *testing.T) {
	t.Run("cache", func(t *testing.T) {
		for _, clk := range kitClocks {
			t.Run(clk.name, func(t *testing.T) { testCacheInvariance(t, clk.vclock) })
		}
	})
	t.Run("compress", testCompressInvariance)
	t.Run("sort", func(t *testing.T) {
		for _, clk := range kitClocks {
			t.Run(clk.name, func(t *testing.T) { testSortInvariance(t, clk.vclock) })
		}
	})
	t.Run("faults-concurrent", testFaultsConcurrent)
}

var kitClocks = []struct {
	name   string
	vclock bool
}{{"real", false}, {"vclock", true}}

// check runs one named verdict as its own subtest.
func check(t *testing.T, name string, ok bool, format string, args ...any) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		t.Helper()
		if !ok {
			t.Errorf(format, args...)
		}
	})
}

func mustHash(t *testing.T, r *KitRun) string {
	t.Helper()
	hash, err := r.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return hash
}

// ---- cache ----

// cacheBaseCounters are the pre-cache counters, placement-sensitive ones
// included: single-reduce jobs and oversized YARN memory make every
// container allocation deterministic.
var cacheBaseCounters = []string{
	"mr.jobs", "mr.spills", "mr.spill.bytes", "mr.merge.passes",
	"mr.shuffle.bytes", "mr.reduce.disk.merges",
	"mr.map.local", "mr.map.remote", "mr.task.retries",
	"disk.read.ops", "disk.write.ops", "disk.read.bytes", "disk.write.bytes",
	"net.bytes", "net.msgs", "hdfs.failover.reads", "hdfs.write.replaced",
}

var cacheHitCounters = []string{
	"hdfs.cache.hits", "hdfs.cache.misses", "hdfs.cache.bytes",
	"hdfs.cache.evictions", "hdfs.bytes.local", "hdfs.bytes.remote",
	"mr.map.cachehot",
}

// cacheRun is one cache-family run: the base counter line taken before
// the output is hashed, the cache counter line taken after it, and the
// values the off/on comparison needs.
type cacheRun struct {
	base, hits, hash    string
	diskRead, cacheHits int64
}

// cacheGolden holds the cache-family golden lines, equal on both clocks:
// the off run's base line and hash, then the on run's base and cache
// lines (the hash must match the off run's).
var cacheGolden = map[string][4]string{
	"pagerank": {
		"mr.jobs=4 mr.spills=184 mr.spill.bytes=946003 mr.merge.passes=0 mr.shuffle.bytes=57704 mr.reduce.disk.merges=0 mr.map.local=89 mr.map.remote=0 mr.task.retries=0 disk.read.ops=1680 disk.write.ops=371 disk.read.bytes=6752120 disk.write.bytes=1552218 net.bytes=156290 net.msgs=29 hdfs.failover.reads=0 hdfs.write.replaced=0",
		"f69fb17177f5d8db/fbe2ed67acabb89e",
		"mr.jobs=4 mr.spills=184 mr.spill.bytes=946003 mr.merge.passes=0 mr.shuffle.bytes=57704 mr.reduce.disk.merges=0 mr.map.local=89 mr.map.remote=0 mr.task.retries=0 disk.read.ops=297 disk.write.ops=371 disk.read.bytes=1252505 disk.write.bytes=1552218 net.bytes=115142 net.msgs=17 hdfs.failover.reads=0 hdfs.write.replaced=0",
		"hdfs.cache.hits=1383 hdfs.cache.misses=15 hdfs.cache.bytes=450784 hdfs.cache.evictions=0 hdfs.bytes.local=0 hdfs.bytes.remote=57438 mr.map.cachehot=89",
	},
	"kmeans": {
		"mr.jobs=3 mr.spills=132 mr.spill.bytes=891855 mr.merge.passes=0 mr.shuffle.bytes=486002 mr.reduce.disk.merges=0 mr.map.local=132 mr.map.remote=0 mr.task.retries=0 disk.read.ops=3237 disk.write.ops=311 disk.read.bytes=13654709 disk.write.bytes=1681210 net.bytes=8404193 net.msgs=1941 hdfs.failover.reads=0 hdfs.write.replaced=0",
		"f9fe2758578e4cb6",
		"mr.jobs=3 mr.spills=132 mr.spill.bytes=891855 mr.merge.passes=0 mr.shuffle.bytes=486002 mr.reduce.disk.merges=0 mr.map.local=132 mr.map.remote=0 mr.task.retries=0 disk.read.ops=352 disk.write.ops=311 disk.read.bytes=1849059 disk.write.bytes=1681210 net.bytes=833988 net.msgs=91 hdfs.failover.reads=0 hdfs.write.replaced=0",
		"hdfs.cache.hits=2885 hdfs.cache.misses=85 hdfs.cache.bytes=528712 hdfs.cache.evictions=0 hdfs.bytes.local=0 hdfs.bytes.remote=347986 mr.map.cachehot=132",
	},
}

func testCacheInvariance(t *testing.T, vclock bool) {
	const cacheMB = 8 // enough for every working set: no evictions
	workloads := []struct {
		name string
		run  func(Profile) (*KitRun, error)
	}{
		{"pagerank", Profile.CachePageRank},
		{"kmeans", Profile.CacheKMeans},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			run := func(cacheMB int) cacheRun {
				r, err := w.run(Profile{CacheMB: cacheMB, VClock: vclock})
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				base := r.Counters(cacheBaseCounters...)
				hash := mustHash(t, r)
				return cacheRun{
					base: base, hits: r.Counters(cacheHitCounters...), hash: hash,
					diskRead:  r.Counter("disk.read.bytes"),
					cacheHits: r.Counter("hdfs.cache.hits"),
				}
			}
			off, on := run(0), run(cacheMB)
			check(t, "off-never-touches-cache", off.cacheHits == 0,
				"cache-off run hit the cache %d times", off.cacheHits)
			check(t, "output-identical", on.hash == off.hash,
				"output differs cache on/off: %s vs %s", on.hash, off.hash)
			check(t, "on-hits-cache", on.cacheHits > 0, "cache-on run never hit the cache")
			check(t, "disk-read-reduced", on.diskRead < off.diskRead,
				"disk.read.bytes not reduced: %d -> %d", off.diskRead, on.diskRead)
			// Equal golden lines on both clocks are the real-vs-virtual
			// byte-identity the clock seam promises.
			g := cacheGolden[w.name]
			got := [4]string{off.base, off.hash, on.base, on.hits}
			for i, name := range []string{"off-counters", "output-hash", "on-counters", "on-cache-counters"} {
				check(t, "golden-"+name, got[i] == g[i], "got  %s\nwant %s", got[i], g[i])
			}
		})
	}
}

// ---- compress ----

// compressRun is what the codec off/on comparison needs.
type compressRun struct {
	hash                            string
	diskWrite, netBytes, compressIn int64
}

func testCompressInvariance(t *testing.T) {
	workloads := []struct {
		name string
		run  func(Profile) (*KitRun, error)
		// wantDiskDrop: the MR workloads must cut both disk.write.bytes
		// and net.bytes; the fabric workload is judged on net.bytes only
		// (its disk traffic is reduce spills, checked via
		// compress.in.bytes).
		wantDiskDrop bool
		golden       string
	}{
		{"wordcount", Profile.MRWordCount, true, "a2d0545efc707c61"},
		{"terasort", Profile.MRTeraSort, true, "f5e59e5c693fe5c9"},
		{"pagerank", Profile.MRPageRank, true, "b0e0d1dbbf264009/d5c777c3"},
		{"hamr-wordcount", func(p Profile) (*KitRun, error) { return p.HAMRWordCount("compresswc") }, false,
			"pairs=797 output=8a1dfb7ea1522845"},
	}
	run := func(t *testing.T, w int, p Profile) compressRun {
		t.Helper()
		r, err := workloads[w].run(p)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return compressRun{
			hash:       mustHash(t, r),
			diskWrite:  r.Counter("disk.write.bytes"),
			netBytes:   r.Counter("net.bytes"),
			compressIn: r.Counter("compress.in.bytes"),
		}
	}
	// One codec-off run per workload and clock serves every codec.
	offs := map[bool][]compressRun{}
	for _, prof := range []struct {
		name  string
		codec string
		vc    bool
	}{{"lz", "lz", false}, {"flate", "flate", false}, {"lz-vclock", "lz", true}} {
		t.Run(prof.name, func(t *testing.T) {
			for i, w := range workloads {
				t.Run(w.name, func(t *testing.T) {
					if len(offs[prof.vc]) <= i {
						offs[prof.vc] = append(offs[prof.vc], run(t, i, Profile{VClock: prof.vc}))
					}
					off := offs[prof.vc][i]
					on := run(t, i, Profile{Codec: prof.codec, VClock: prof.vc})
					check(t, "golden-output", off.hash == w.golden, "got %s want %s", off.hash, w.golden)
					check(t, "off-never-touches-codec", off.compressIn == 0,
						"codec-off run compressed %d bytes", off.compressIn)
					check(t, "output-identical", on.hash == off.hash,
						"output differs codec on/off: %s vs %s", on.hash, off.hash)
					check(t, "on-compresses", on.compressIn > 0, "codec-on run compressed nothing")
					if w.wantDiskDrop {
						check(t, "disk-write-cut-30pct", on.diskWrite <= off.diskWrite*7/10,
							"disk.write.bytes %d -> %d", off.diskWrite, on.diskWrite)
					}
					check(t, "net-bytes-cut-30pct", on.netBytes <= off.netBytes*7/10,
						"net.bytes %d -> %d", off.netBytes, on.netBytes)
				})
			}
		})
	}
}

// ---- sort ----

func testSortInvariance(t *testing.T, vclock bool) {
	p := Profile{VClock: vclock}
	workloads := []struct {
		name   string
		run    func() (*KitRun, error)
		golden string
	}{
		{"mr-wordcount", func() (*KitRun, error) { return p.SortWordCount(false) }, "25e5efbed715f74f"},
		{"mr-wordcount+comb", func() (*KitRun, error) { return p.SortWordCount(true) }, "25e5efbed715f74f"},
		{"mr-terasort", p.SortTeraSort, "e29cf1698736ccfe"},
		{"hamr-reduce-spill", p.SortReduceSpill, "pairs=16 output=7eb09dfc949c2cbe"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.run()
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			hash := mustHash(t, r)
			check(t, "golden-output", hash == w.golden, "got %s want %s", hash, w.golden)
			if w.name != "hamr-reduce-spill" {
				return
			}
			// Spill runs are deleted after the merge: every file left on
			// a node disk is one of the job's input parts.
			inputs := map[string]bool{}
			for part := 0; part < 4; part++ {
				inputs[fmt.Sprintf("input/wc-part-%04d", part)] = true
			}
			var stray []string
			for node, d := range r.C.Disks() {
				for _, name := range d.List("") {
					if !inputs[name] {
						stray = append(stray, fmt.Sprintf("node%d:%s", node, name))
					}
				}
			}
			check(t, "spill-cleanup", len(stray) == 0, "files left after the merge: %v", stray)
		})
	}
}

// ---- faults x concurrent jobs ----

// testFaultsConcurrent submits two HAMR WordCounts at once to one cluster
// under ChaosCheck's flowlet fault mix; each job's output must equal the
// fault-free run's.
func testFaultsConcurrent(t *testing.T) {
	nodes := DefaultSpec().Nodes
	runJobs := func(t *testing.T, fcfg *faults.Config, jobs int) ([][]core.KV, int64) {
		t.Helper()
		c, files, err := chaosHAMRCluster(nodes, fcfg, false, jobs)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Faults().Arm()
		defer c.Faults().Disarm()
		sinks := make([]*core.CollectSink, jobs)
		handles := make([]*cluster.JobHandle, jobs)
		for i := range sinks {
			g, sink, err := chaosWordCount(files)
			if err != nil {
				t.Fatal(err)
			}
			h, err := c.Submit(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			sinks[i], handles[i] = sink, h
		}
		outs := make([][]core.KV, jobs)
		for i, h := range handles {
			if _, err := h.Wait(); err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
			outs[i] = sinks[i].Sorted()
		}
		return outs, c.Metrics().Counter("faults.injected").Value()
	}
	golden, _ := runJobs(t, nil, 1)
	for _, seed := range []int64{1, 3, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			outs, injected := runJobs(t, chaosHAMRFaults(seed), 2)
			check(t, "faults-fired", injected > 0, "no faults injected")
			for i, out := range outs {
				check(t, fmt.Sprintf("job%d-output", i), reflect.DeepEqual(out, golden[0]),
					"job %d output differs from the fault-free run (%d vs %d pairs)", i, len(out), len(golden[0]))
			}
		})
	}
}
