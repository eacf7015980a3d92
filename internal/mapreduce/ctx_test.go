package mapreduce

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
)

// slowMapper signals its first record and then paces itself, giving the
// test a window to cancel while map tasks are genuinely in flight.
type slowMapper struct {
	started   chan struct{}
	startOnce *sync.Once
}

func (m slowMapper) Map(kv core.KV, out Emitter) error {
	m.startOnce.Do(func() { close(m.started) })
	time.Sleep(time.Millisecond)
	return out.Emit(core.KV{Key: "k", Value: int64(1)})
}

// TestRunContextCancelMidMap cancels the job context while map tasks are
// running: RunContext must return an error matching core.ErrJobCanceled in
// bounded time instead of finishing the job.
func TestRunContextCancelMidMap(t *testing.T) {
	c := newTestCluster(t, 3)
	writeCorpus(t, c, "in/corpus.txt", 600)
	started := make(chan struct{})
	once := &sync.Once{}
	job := Job{
		Name:          "cancel-mid-map",
		InputPrefixes: []string{"in/"},
		Output:        "out",
		NewMapper:     func() Mapper { return slowMapper{started: started, startOnce: once} },
		NewReducer:    func() Reducer { return wcReducer{} },
		NumReduces:    2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := NewEngine(c, Config{})

	type outcome struct {
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := e.RunContext(ctx, job)
		done <- outcome{err}
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("map phase never started")
	}
	cancel()
	select {
	case o := <-done:
		if !errors.Is(o.err, core.ErrJobCanceled) {
			t.Fatalf("RunContext after cancel = %v, want ErrJobCanceled", o.err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("canceled job did not return in bounded time")
	}
}

// TestRunContextBackgroundMatchesRun: Run is RunContext(Background) — a
// plain run through the context-first entry point still succeeds.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	c := newTestCluster(t, 2)
	want := writeCorpus(t, c, "in/corpus.txt", 120)
	e := NewEngine(c, Config{})
	if _, err := e.RunContext(context.Background(), wordCountJob(false)); err != nil {
		t.Fatal(err)
	}
	if got := parseCounts(t, c, "out"); len(got) != len(want) {
		t.Fatalf("output keys = %d, want %d", len(got), len(want))
	}
}

// lastMapCancels is a word-count mapper whose Cleanup cancels the job
// once every one of the job's maps has reached it: the map phase then
// completes with all segments written, and the cancellation lands
// between the map/reduce barrier and reduce dispatch.
type lastMapCancels struct {
	wcMapper
	left   *atomic.Int64
	cancel context.CancelFunc
}

func (m lastMapCancels) Cleanup(Emitter) error {
	if m.left.Add(-1) == 0 {
		m.cancel()
	}
	return nil
}

// TestFailedJobLeavesNoSegments: a job that fails in its reduce phase, or
// is canceled after its map phase, still removes every completed map
// attempt's segments — each node disk holds exactly the files it held
// before the job.
func TestFailedJobLeavesNoSegments(t *testing.T) {
	listDisks := func(c *cluster.Cluster) [][]string {
		out := make([][]string, c.NumNodes())
		for i := range out {
			out[i] = c.Disk(i).List("")
			slices.Sort(out[i])
		}
		return out
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, c *cluster.Cluster, e *Engine) error
	}{
		{"reduce-failure", func(t *testing.T, c *cluster.Cluster, e *Engine) error {
			job := wordCountJob(false)
			job.NewReducer = func() Reducer {
				return ReducerFunc(func(string, []any, Emitter) error { return errors.New("reducer failed") })
			}
			_, err := e.Run(job)
			return err
		}},
		{"cancel-after-map", func(t *testing.T, c *cluster.Cluster, e *Engine) error {
			splits, err := c.FS().SplitsGlob("in/")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			left := new(atomic.Int64)
			left.Store(int64(len(splits)))
			job := wordCountJob(false)
			job.NewMapper = func() Mapper { return lastMapCancels{left: left, cancel: cancel} }
			_, err = e.RunContext(ctx, job)
			if !errors.Is(err, core.ErrJobCanceled) {
				t.Fatalf("RunContext = %v, want ErrJobCanceled", err)
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, 3)
			writeCorpus(t, c, "in/corpus.txt", 400)
			before := listDisks(c)
			e := NewEngine(c, Config{MaxTaskAttempts: 1})
			if err := tc.run(t, c, e); err == nil {
				t.Fatal("job succeeded, want a failure")
			}
			if got := c.Metrics().Counter("mr.spills").Value(); got == 0 {
				t.Fatal("no map output was written; the check would be vacuous")
			}
			after := listDisks(c)
			for i := range before {
				if !slices.Equal(after[i], before[i]) {
					t.Errorf("node %d disk after the job = %v, want %v", i, after[i], before[i])
				}
			}
		})
	}
}
