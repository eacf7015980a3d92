// Command traceprobe is the invariance probe for the span recorder
// (internal/trace). It drives the trace-relevant workloads — MR WordCount
// (map-side spills), MR TeraSort (reduce-side external merge + shuffle)
// and a HAMR WordCount over the message fabric — once with tracing off
// and once with a recorder attached, and checks:
//
//   - the trace-off counter lines and output hashes are bit-identical to
//     the pre-tracing baseline baked in below (the off path is the nil
//     tracer: no span code runs);
//   - the trace-on runs keep the same output hashes and modeled byte
//     counters while recording a non-empty span set whose Chrome JSON
//     export is valid and whose critical path is computable.
//
// -out writes the TeraSort trace-on JSON for archiving; -vclock runs
// everything on the virtual clock (the lines must not change).
//
// The probe exits non-zero if any assertion fails, so CI can run it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/hamr-go/hamr/internal/bench"
	"github.com/hamr-go/hamr/internal/trace"
)

var vclock = flag.Bool("vclock", false, "pay modeled delays on a virtual clock instead of sleeping")

// Baselines captured on the pre-tracing build (HDFSCacheMB=0, codec off).
// The trace-off runs below must reproduce them byte for byte.
const (
	wcBaseLine   = "mr.jobs=1 mr.spills=162 mr.spill.bytes=660000 mr.merge.passes=156 mr.shuffle.bytes=254388 mr.reduce.disk.merges=0 disk.read.bytes=15393244 disk.write.bytes=15281852 net.bytes=365780 net.msgs=9"
	wcBaseHash   = "a2d0545efc707c61"
	teraBaseLine = "mr.jobs=1 mr.spills=88 mr.spill.bytes=696000 mr.merge.passes=35 mr.shuffle.bytes=294002 mr.reduce.disk.merges=18 disk.read.bytes=4630890 disk.write.bytes=3933930 net.bytes=294002 net.msgs=2"
	teraBaseHash = "f5e59e5c693fe5c9"
	hamrBaseLine = "reduce.spills=160 reduce.spill.bytes=652800 disk.read.bytes=523920 disk.write.bytes=523920 net.bytes=590118 net.msgs=58"
	hamrBaseHash = "pairs=797 output=8a1dfb7ea1522845"
)

var mrCounters = []string{
	"mr.jobs", "mr.spills", "mr.spill.bytes", "mr.merge.passes",
	"mr.shuffle.bytes", "mr.reduce.disk.merges",
	"disk.read.bytes", "disk.write.bytes", "net.bytes", "net.msgs",
}

var hamrCounters = []string{
	"reduce.spills", "reduce.spill.bytes",
	"disk.read.bytes", "disk.write.bytes", "net.bytes", "net.msgs",
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traceprobe:", err)
	os.Exit(1)
}

// probeResult carries one run's identity line, output hash and (for
// trace-on runs) the recorder.
type probeResult struct {
	line string
	hash string
	tr   *trace.Tracer
}

// probe runs one shuffle-family workload of the invariance kit
// (internal/bench) with tracing off or on. Hash before snapshotting
// counters: reading an MR output back through HDFS charges
// disk.read.bytes, and the baseline lines include it.
func probe(run func(bench.Profile) (*bench.KitRun, error), counters []string, withTrace bool) probeResult {
	r, err := run(bench.Profile{VClock: *vclock, Trace: withTrace})
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	hash, err := r.Hash()
	if err != nil {
		fatal(err)
	}
	return probeResult{r.Counters(counters...), hash, r.Tracer}
}

func probeWordCount(withTrace bool) probeResult {
	return probe(bench.Profile.MRWordCount, mrCounters, withTrace)
}

func probeTeraSort(withTrace bool) probeResult {
	return probe(bench.Profile.MRTeraSort, mrCounters, withTrace)
}

func probeHAMRWordCount(withTrace bool) probeResult {
	return probe(func(p bench.Profile) (*bench.KitRun, error) {
		return p.HAMRWordCount("tracewc")
	}, hamrCounters, withTrace)
}

func main() {
	out := flag.String("out", "", "write the TeraSort trace-on Chrome JSON to this path")
	flag.Parse()

	fail := false
	check := func(ok bool, format string, args ...any) {
		verdict := "PASS"
		if !ok {
			verdict = "FAIL"
			fail = true
		}
		fmt.Printf("[%s] %s\n", verdict, fmt.Sprintf(format, args...))
	}

	type workload struct {
		name     string
		run      func(withTrace bool) probeResult
		baseLine string
		baseHash string
	}
	workloads := []workload{
		{"wordcount", probeWordCount, wcBaseLine, wcBaseHash},
		{"terasort", probeTeraSort, teraBaseLine, teraBaseHash},
		{"hamr-wordcount", probeHAMRWordCount, hamrBaseLine, hamrBaseHash},
	}

	for _, w := range workloads {
		off := w.run(false)
		fmt.Printf("%s-off: %s\n%s-off: %s\n", w.name, off.line, w.name, off.hash)
		check(off.line == w.baseLine, "%s trace-off counters match the pre-tracing baseline", w.name)
		check(off.hash == w.baseHash, "%s trace-off output matches the pre-tracing baseline", w.name)

		on := w.run(true)
		check(on.line == off.line, "%s trace-on counters unchanged", w.name)
		check(on.hash == off.hash, "%s trace-on output unchanged", w.name)

		evs := on.tr.Events()
		spans, instants := 0, 0
		for _, ev := range evs {
			if ev.Instant {
				instants++
			} else {
				spans++
			}
		}
		fmt.Printf("%s-on: spans=%d instants=%d\n", w.name, spans, instants)
		check(spans > 0, "%s trace-on records spans", w.name)

		var buf bytes.Buffer
		if err := trace.WriteJSON(&buf, evs); err != nil {
			fatal(err)
		}
		check(json.Valid(buf.Bytes()), "%s trace JSON is valid (%d bytes)", w.name, buf.Len())
		// Under -vclock with zero-delay cost models every lane can stay at
		// zero, making all spans zero-duration; the critical path is then
		// legitimately empty, so only require it when some span has width.
		var maxDur time.Duration
		for _, ev := range evs {
			if !ev.Instant && ev.Dur > maxDur {
				maxDur = ev.Dur
			}
		}
		cp := trace.CriticalPath(evs)
		check(len(cp) > 0 || maxDur == 0, "%s critical path computable (%d segments)", w.name, len(cp))

		if w.name == "terasort" && *out != "" {
			if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("terasort trace written to %s\n", *out)
		}
	}

	if fail {
		fmt.Println("traceprobe: FAIL")
		os.Exit(1)
	}
	fmt.Println("traceprobe: OK")
}
