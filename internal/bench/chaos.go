package bench

import (
	"fmt"
	"reflect"
	"time"

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/apps/mrapps"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/faults"
	"github.com/hamr-go/hamr/internal/mapreduce"
	"github.com/hamr-go/hamr/internal/vtime"
)

// ChaosCheck runs a short WordCount on both engines twice — fault-free,
// then with a seeded fault injector killing tasks, revoking containers,
// crashing flowlet fires and perturbing messages — and verifies that
// recovery masks every injected fault: the outputs are identical and the
// recovery counters moved. It returns PASS/FAIL verdict lines in the same
// format as ShapeCheck. vclock runs every cluster under a fresh virtual
// clock, so injected delay faults advance logical clocks instead of
// sleeping; recovery must still mask every fault.
func ChaosCheck(nodes int, seed int64, vclock bool) []string {
	var out []string
	check := func(ok bool, format string, args ...any) {
		verdict := "PASS"
		if !ok {
			verdict = "FAIL"
		}
		out = append(out, fmt.Sprintf("[%s] %s", verdict, fmt.Sprintf(format, args...)))
	}
	input := chaosText()

	// MapReduce side: task kills and container revocations.
	mrOut := func(fcfg *faults.Config) (map[string]int64, *cluster.Cluster, error) {
		opts := cluster.Options{
			NumNodes:        nodes,
			HDFSBlockSize:   4 << 10,
			HDFSReplication: 2,
			Faults:          fcfg,
		}
		if vclock {
			opts.Clock = vtime.NewVirtual(nodes)
		}
		c, err := cluster.New(opts)
		if err != nil {
			return nil, nil, err
		}
		if err := c.FS().WriteFile("in/words", input, -1); err != nil {
			c.Close()
			return nil, nil, err
		}
		eng := mapreduce.NewEngine(c, mapreduce.Config{})
		c.Faults().Arm()
		_, err = eng.Run(mrapps.WordCountJob("in/words", "out", true, 3))
		c.Faults().Disarm()
		if err != nil {
			c.Close()
			return nil, nil, err
		}
		counts := map[string]int64{}
		for _, f := range c.FS().List("out/") {
			data, err := c.FS().ReadFile(f, -1)
			if err != nil {
				c.Close()
				return nil, nil, err
			}
			for _, kv := range parseTSV(data) {
				counts[kv.k] = kv.v
			}
		}
		return counts, c, nil
	}
	base, bc, err := mrOut(nil)
	if err != nil {
		check(false, "mapreduce baseline run: %v", err)
		return out
	}
	bc.Close()
	faulted, fc, err := mrOut(&faults.Config{Seed: seed, KillMap: 0.3, Revoke: 0.2})
	if err != nil {
		check(false, "mapreduce chaos run (seed %d): %v", seed, err)
	} else {
		injected := fc.Metrics().Counter("faults.injected").Value()
		retries := fc.Metrics().Counter("mr.task.retries").Value()
		check(injected > 0, "mapreduce chaos: faults fired (seed %d, %d injected)", seed, injected)
		check(retries > 0, "mapreduce chaos: tasks retried (%d retries)", retries)
		check(reflect.DeepEqual(faulted, base),
			"mapreduce chaos: recovered output identical (%d keys)", len(base))
		fc.Close()
	}

	// HAMR side: flowlet crashes plus message drop/dup/delay.
	hamrOut := func(fcfg *faults.Config) ([]core.KV, *cluster.Cluster, error) {
		c, files, err := chaosHAMRCluster(nodes, fcfg, vclock, 0)
		if err != nil {
			return nil, nil, err
		}
		g, sink, err := chaosWordCount(files)
		if err != nil {
			c.Close()
			return nil, nil, err
		}
		c.Faults().Arm()
		_, err = c.Run(g)
		c.Faults().Disarm()
		if err != nil {
			c.Close()
			return nil, nil, err
		}
		return sink.Sorted(), c, nil
	}
	hBase, hbc, err := hamrOut(nil)
	if err != nil {
		check(false, "hamr baseline run: %v", err)
		return out
	}
	hbc.Close()
	hFaulted, hfc, err := hamrOut(chaosHAMRFaults(seed))
	if err != nil {
		check(false, "hamr chaos run (seed %d): %v", seed, err)
	} else {
		injected := hfc.Metrics().Counter("faults.injected").Value()
		check(injected > 0, "hamr chaos: faults fired (seed %d, %d injected)", seed, injected)
		check(reflect.DeepEqual(hFaulted, hBase),
			"hamr chaos: recovered output identical (%d pairs)", len(hBase))
		hfc.Close()
	}
	return out
}

type tsvKV struct {
	k string
	v int64
}

func parseTSV(data []byte) []tsvKV {
	var kvs []tsvKV
	start := 0
	for i := 0; i <= len(data); i++ {
		if i == len(data) || data[i] == '\n' {
			line := data[start:i]
			start = i + 1
			for j := 0; j < len(line); j++ {
				if line[j] == '\t' {
					var v int64
					for _, d := range line[j+1:] {
						if d >= '0' && d <= '9' {
							v = v*10 + int64(d-'0')
						}
					}
					kvs = append(kvs, tsvKV{k: string(line[:j]), v: v})
					break
				}
			}
		}
	}
	return kvs
}

// chaosText is the input of both engines' recovery checks.
func chaosText() []byte {
	return datagen.Text(datagen.TextConfig{Seed: 17, Vocabulary: 120, Lines: 600})
}

// chaosHAMRFaults is the flowlet-engine fault mix: crashed flowlet fires
// plus dropped, duplicated and delayed messages.
func chaosHAMRFaults(seed int64) *faults.Config {
	return &faults.Config{
		Seed: seed, FlowletFire: 0.1, MsgDrop: 0.03, MsgDup: 0.02,
		MsgDelay: 0.03, MsgDelayDur: 100 * time.Microsecond,
	}
}

// chaosHAMRCluster builds the flowlet-engine chaos cluster and spreads
// chaosText over 2*nodes local files, returning the loader file map.
func chaosHAMRCluster(nodes int, fcfg *faults.Config, vclock bool, maxJobs int) (*cluster.Cluster, map[int][]string, error) {
	opts := cluster.Options{
		NumNodes:          nodes,
		Core:              core.Config{Workers: 2, CoalesceMsgs: -1},
		Faults:            fcfg,
		MaxConcurrentJobs: maxJobs,
	}
	if vclock {
		opts.Clock = vtime.NewVirtual(nodes)
	}
	c, err := cluster.New(opts)
	if err != nil {
		return nil, nil, err
	}
	files, err := hamrapps.DistributeLocalText(c, "words", chaosText(), 2*nodes)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, files, nil
}

// chaosWordCount builds the combiner WordCount graph the HAMR chaos runs
// submit.
func chaosWordCount(files map[int][]string) (*core.Graph, *core.CollectSink, error) {
	return hamrapps.BuildWordCount(hamrapps.WordCountOptions{
		Loader:   &hamrapps.LocalTextLoader{Files: files},
		Combiner: true,
	})
}
