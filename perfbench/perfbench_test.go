package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/trace"
)

// declared is the part of BENCHMARK.json the program must agree with.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics fails unless got holds exactly the declared metrics, with
// their declared units.
func checkMetrics(t *testing.T, got metricSet, want []declaredMetric) {
	t.Helper()
	for name := range got {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, metricName)
		}
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("declared metric %q not reported", m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("metric %q has unit %q, declared %q", m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		var names []string
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		t.Errorf("reported %d metrics, declared %d: %v", len(got), len(want), names)
	}
}

func TestDeclaredWorkloadsExist(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestEndToEndVerifiesAcrossSeeds runs every workload briefly on two
// seeds: every job must match the reference, and the run must report
// exactly the declared end-to-end metrics.
func TestEndToEndVerifiesAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := readDeclared(t)
	for _, w := range workloads {
		for _, seed := range []int64{11, 12} {
			res, err := endToEnd(w, seed, time.Millisecond)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2*w.clients {
				t.Errorf("%s seed %d: correct=%v attempted=%d failed=%d", w.name, seed, res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res.Metrics, d.EndToEnd)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
		}
	}
}

// TestDiagnoseReportsLayerMetrics runs the diagnostic passes briefly on
// every workload and checks the declared per-layer metrics and that each
// workload's heavy layers show work.
func TestDiagnoseReportsLayerMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := readDeclared(t)
	heavy := map[string][]string{
		"hamr-wordcount":  {"core.bins_sent", "core.load_self_s", "transport.net_bytes", "transport.deliver_self_s", "storage.disk_read_bytes", "vtime.modeled_s"},
		"mr-wordcount":    {"hdfs.bytes_local", "hdfs.read_self_s", "hdfs.ingest_s", "mapreduce.map_tasks", "mapreduce.map_self_s", "extsort.spills", "extsort.merge_self_s", "yarn.granted", "storage.disk_write_bytes", "vtime.startup_busy_s"},
		"hamr-ratings-x2": {"core.partial_contention_s", "yarn.granted", "vtime.contention_busy_s"},
	}
	for _, w := range workloads {
		res, err := diagnose(w, 13, time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, res.Metrics, d.PerLayer)
		for _, name := range heavy[w.name] {
			if !(res.Metrics[name].Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
			}
		}
	}
}

// TestCheckCatchesCorruptOutput shows that a job whose output differs
// from the reference counts as failed, on both engines' output paths.
func TestCheckCatchesCorruptOutput(t *testing.T) {
	for _, name := range []string{"hamr-wordcount", "mr-wordcount"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		data, want, _, _, err := inputs(w, 21)
		if err != nil {
			t.Fatal(err)
		}
		r, err := newRig(w, data, want, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if run := r.runJob(); run.err != nil {
			t.Fatalf("%s: clean job failed: %v", name, run.err)
		}
		// The reference is unchanged and the engine correct, so the
		// expected map is what the job produces; corrupting one count of
		// the expectation makes the genuine output wrong relative to it.
		r.want = copyCounts(want)
		r.want[anyKey(want)]++
		if run := r.runJob(); run.err == nil {
			t.Errorf("%s: output differing from the reference in one count passed the check", name)
		}
		r.close()
	}

	// A corrupted HDFS part file read back by the MR path.
	w, _ := findWorkload("mr-wordcount")
	data, want, _, _, err := inputs(w, 22)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRig(w, data, want, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	key := anyKey(want)
	if err := r.c.FS().WriteFile("bad/part-r-00000", []byte(key+"\t999999999\n"), -1); err != nil {
		t.Fatal(err)
	}
	got, err := readMROutput(r.c.FS(), "bad")
	if err != nil {
		t.Fatal(err)
	}
	if compareOutput(got, want) == nil {
		t.Error("corrupted MR output passed the check")
	}

	// Corrupted HAMR sink pairs.
	good := make([]core.KV, 0, len(want))
	for k, v := range want {
		good = append(good, core.KV{Key: k, Value: v})
	}
	if err := compareSink(good, want); err != nil {
		t.Fatalf("clean pairs rejected: %v", err)
	}
	wrong := append([]core.KV(nil), good...)
	wrong[0].Value = wrong[0].Value.(int64) + 1
	cases := map[string][]core.KV{
		"wrong count":   wrong,
		"duplicate key": append(append([]core.KV(nil), good...), good[0]),
		"extra key":     append(append([]core.KV(nil), good...), core.KV{Key: "not-a-word", Value: int64(1)}),
		"missing key":   good[1:],
		"wrong type":    append([]core.KV{{Key: good[0].Key, Value: "1"}}, good[1:]...),
	}
	for name, pairs := range cases {
		if compareSink(pairs, want) == nil {
			t.Errorf("%s passed the check", name)
		}
	}
}

func compareSink(pairs []core.KV, want map[string]int64) error {
	got, err := sinkOutput(pairs)
	if err != nil {
		return err
	}
	return compareOutput(got, want)
}

func copyCounts(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func anyKey(m map[string]int64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys[0]
}

func TestReferenceRatings(t *testing.T) {
	got, err := referenceRatings([]byte("movie000001:u1_5,u2_3,u1_4\nmovie000002:\nmovie000003:u7_3\n"))
	if err != nil {
		t.Fatal(err)
	}
	// u1 rates movie000001 once; the repeated entry is not counted.
	if err := compareOutput(got, map[string]int64{"5": 1, "3": 2}); err != nil {
		t.Error(err)
	}
	if _, err := referenceRatings([]byte("movie000001:u1-5\n")); err == nil {
		t.Error("malformed rating accepted")
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 31; i++ {
		xs = append(xs, float64(i))
	}
	v, pct := tail(xs)
	// The eleventh-largest of 1..31 is 21: ten samples lie beyond it.
	if v != 21 || math.Abs(pct-200.0/3) > 1e-9 {
		t.Errorf("tail = %v at p%v, want 21 at p66.7", v, pct)
	}
	if v, pct := tail(xs[:20]); v != 10.5 || pct != 50 {
		t.Errorf("tail of 20 samples = %v at p%v, want the median 10.5", v, pct)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of no samples = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	evs := []*trace.Event{
		{ID: "task", Phase: "map", Begin: 0, Dur: 10 * ms},
		// Two overlapping children cover [2,6) of the parent; the third
		// sticks out past its end and counts only up to it.
		{ID: "a", Parent: "task", Phase: "startup", Begin: 2 * ms, Dur: 3 * ms},
		{ID: "b", Parent: "task", Phase: "startup", Begin: 4 * ms, Dur: 2 * ms},
		{ID: "c", Parent: "task", Phase: "fetch", Begin: 9 * ms, Dur: 5 * ms},
		{ID: "i", Parent: "task", Phase: "spill", Begin: 1 * ms, Instant: true},
	}
	got := selfTimes(evs)
	want := map[string]time.Duration{"map": 5 * ms, "startup": 5 * ms, "fetch": 5 * ms}
	if len(got) != len(want) {
		t.Errorf("phases %v, want %v", got, want)
	}
	for phase, d := range want {
		if got[phase] != d {
			t.Errorf("self[%s] = %v, want %v", phase, got[phase], d)
		}
	}
}
