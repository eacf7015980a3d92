package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// gatePartial sums int64 counts like sumPartial, but an update of key hot
// blocks until release is closed (closing entered on the first one), an
// update of key cold closes coldSeen, and an update of key bad fails with
// errBadUpdate, counted in badCalls.
type gatePartial struct {
	hot, cold string
	entered   chan struct{}
	release   chan struct{}
	coldSeen  chan struct{}
	enterOnce sync.Once
	coldOnce  sync.Once

	mu       sync.Mutex
	badCalls int
}

var errBadUpdate = errors.New("bad update")

func newGatePartial(hot, cold string) *gatePartial {
	return &gatePartial{
		hot: hot, cold: cold,
		entered:  make(chan struct{}),
		release:  make(chan struct{}),
		coldSeen: make(chan struct{}),
	}
}

func (p *gatePartial) Update(key string, state, value any) (any, error) {
	switch key {
	case p.hot:
		p.enterOnce.Do(func() { close(p.entered) })
		<-p.release
	case p.cold:
		p.coldOnce.Do(func() { close(p.coldSeen) })
	case "bad":
		p.mu.Lock()
		p.badCalls++
		p.mu.Unlock()
		return nil, errBadUpdate
	}
	return sumPartial{}.Update(key, state, value)
}

func (p *gatePartial) Finish(key string, state any, ctx Context) error {
	return sumPartial{}.Finish(key, state, ctx)
}

// stripeRig is one job registered, but not started, on two nodes: a
// loader -> partial reduce -> sink graph whose partial reduce on node 0
// is fed hand-made remote bins from node 1.
type stripeRig struct {
	nodes   []*NodeRuntime
	recv    *jobNode // node 0
	send    *jobNode // node 1
	fs      *flowletState
	pr      int
	cleanup func()
}

func newStripeRig(t *testing.T, partial PartialReducer) *stripeRig {
	t.Helper()
	nodes, cleanup := newTestCluster(t, 2, Config{Workers: 2, FlowControlWindow: 64})
	g := NewGraph("stripes")
	ld, _ := g.AddLoader("load", &sliceLoader{})
	pr, _ := g.AddPartialReduce("sum", partial)
	sk, _ := g.AddSink("out", NewCollectSink())
	g.Connect(ld, pr)
	g.Connect(pr, sk)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	jobID := jobCounter.Add(1)
	r := &stripeRig{nodes: nodes, pr: pr, cleanup: cleanup}
	r.recv = newJobNode(nodes[0], g, jobID, 2)
	r.send = newJobNode(nodes[1], g, jobID, 2)
	for _, jn := range []*jobNode{r.recv, r.send} {
		if err := jn.rt.registerJob(jn); err != nil {
			t.Fatal(err)
		}
	}
	r.fs = r.recv.flowlets[pr]
	return r
}

func (r *stripeRig) close() {
	r.nodes[0].unregisterJob(r.recv.jobID)
	r.nodes[1].unregisterJob(r.send.jobID)
	r.cleanup()
}

// deliver sends one remote bin of n (key, 1) pairs from node 1 to node 0
// the way the fabric would, taking the sender's credit for it.
func (r *stripeRig) deliver(key string, n int) {
	kvs := make([]KV, n)
	for i := range kvs {
		kvs[i] = KV{Key: key, Value: int64(1)}
	}
	es := r.send.edges[0]
	es.cred.take()
	r.recv.onBin(&Bin{Job: r.recv.jobID, Edge: es.idx, Flowlet: r.pr, From: 1, KVs: kvs}, false)
}

func (r *stripeRig) outstanding() int {
	c := r.send.edges[0].cred
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.outstanding
}

func (r *stripeRig) counts() (enqueued, processed int64) {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	return r.fs.enqueued, r.fs.processed
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(time.Millisecond)
	}
}

// coldKey returns a key on node 0's stripes other than hot's stripe.
func coldKey(t *testing.T, hot string, stripes int) string {
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("cold%d", i)
		if HashKey(k)%uint64(stripes) != HashKey(hot)%uint64(stripes) {
			return k
		}
	}
	t.Fatal("no cold key found")
	return ""
}

// TestStripeDelegation: remote bins for a stripe whose update is stuck
// must not take the node's pool workers with them. With two workers and
// three hot bins queued behind a blocked update, a bin for another
// stripe is still applied; once the hot stripe is released every bin is
// folded, acked exactly once, and counted processed.
func TestStripeDelegation(t *testing.T) {
	const hotBins, perBin = 3, 5
	gp := newGatePartial("hot", coldKey(t, "hot", 64))
	r := newStripeRig(t, gp)
	defer r.close()
	released := false
	defer func() {
		if !released {
			close(gp.release)
		}
	}()

	// A sentinel credit the receiver never acks: a duplicate ack would
	// release it and show as outstanding < 1.
	r.send.edges[0].cred.take()
	r.deliver("hot", perBin)
	select {
	case <-gp.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first hot update never ran")
	}
	for i := 1; i < hotBins; i++ {
		r.deliver("hot", perBin)
	}
	r.deliver(gp.cold, perBin)
	select {
	case <-gp.coldSeen:
	case <-time.After(5 * time.Second):
		t.Fatal("cold bin not applied while the hot stripe was blocked")
	}
	waitFor(t, "the cold bin's ack", 5*time.Second, func() bool { return r.outstanding() == 1+hotBins })

	close(gp.release)
	released = true
	waitFor(t, "every bin acked", 5*time.Second, func() bool { return r.outstanding() == 1 })
	waitFor(t, "processed == enqueued", 5*time.Second, func() bool {
		e, p := r.counts()
		return e == p
	})
	time.Sleep(20 * time.Millisecond) // room for a stray second ack
	if got := r.outstanding(); got != 1 {
		t.Errorf("outstanding credit = %d after settling, want the sentinel's 1", got)
	}
	if e, p := r.counts(); e != hotBins+1 || p != e {
		t.Errorf("enqueued=%d processed=%d, want %d and equal", e, p, hotBins+1)
	}
	state := map[string]any{}
	for i := range r.fs.stripes {
		st := &r.fs.stripes[i]
		st.mu.Lock()
		for k, v := range st.state {
			state[k] = v
		}
		st.mu.Unlock()
	}
	want := map[string]any{"hot": int64(hotBins * perBin), gp.cold: int64(perBin)}
	if !reflect.DeepEqual(state, want) {
		t.Errorf("partial state = %v, want %v", state, want)
	}
	if err := r.recv.Error(); err != nil {
		t.Errorf("job error: %v", err)
	}
}

// TestStripeQueueAbort covers the two ways a job ends with stripe batches
// still queued: its own update failing, and cancellation.
func TestStripeQueueAbort(t *testing.T) {
	t.Run("update-error", func(t *testing.T) {
		// Five bad bins land on one stripe: the first failing batch aborts
		// the job with its error wrapped once; the batches queued behind it
		// are acked without being applied.
		const bins = 5
		gp := newGatePartial("hot", "cold")
		r := newStripeRig(t, gp)
		defer r.close()
		for i := 0; i < bins; i++ {
			r.deliver("bad", 3)
		}
		select {
		case <-r.recv.doneCh:
		case <-time.After(5 * time.Second):
			t.Fatal("job did not fail")
		}
		err := r.recv.Error()
		if !errors.Is(err, errBadUpdate) {
			t.Fatalf("job error = %v, want errBadUpdate", err)
		}
		if n := strings.Count(err.Error(), `flowlet "sum" on node 0`); n != 1 {
			t.Errorf("job error %q wraps the flowlet context %d times, want 1", err, n)
		}
		waitFor(t, "every bin acked", 5*time.Second, func() bool { return r.outstanding() == 0 })
		if e, p := r.counts(); e != bins || p != e {
			t.Errorf("enqueued=%d processed=%d, want %d and equal", e, p, bins)
		}
		gp.mu.Lock()
		calls := gp.badCalls
		gp.mu.Unlock()
		if calls != 1 {
			t.Errorf("failing update ran %d times, want 1", calls)
		}
		select {
		case <-r.send.doneCh:
		case <-time.After(5 * time.Second):
			t.Fatal("failure not relayed to node 1")
		}
	})

	t.Run("cancel", func(t *testing.T) {
		goroutines := runtime.NumGoroutine()
		chunks := func(word string) [][]string {
			var cs [][]string
			for i := 0; i < 6; i++ {
				cs = append(cs, []string{strings.Repeat(word+" ", 1000) + fmt.Sprintf("tail%d", i)})
			}
			return cs
		}
		cfg := Config{Workers: 2, BinSize: 16, ContentionCost: 20 * time.Microsecond}
		count := func(s *CollectSink) map[string]int64 {
			m := map[string]int64{}
			for _, kv := range s.Pairs() {
				m[kv.Key] += kv.Value.(int64)
			}
			return m
		}

		soloNodes, soloCleanup := newTestCluster(t, 3, cfg)
		gSolo, sinkSolo := buildWordCount(t, true, chunks("beta"))
		if _, err := Run(gSolo, soloNodes, nil); err != nil {
			t.Fatal(err)
		}
		soloCleanup()

		nodes, cleanup := newTestCluster(t, 3, cfg)
		gA, _ := buildWordCount(t, true, chunks("alpha"))
		gB, sinkB := buildWordCount(t, true, chunks("beta"))
		jA, err := NewJob(gA, nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		jB, err := NewJob(gB, nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		agg := gA.FlowletID("count")
		// stripeLoad sums the job's queued stripe batches and active
		// drainers across the cluster.
		stripeLoad := func(j *Job) (queued, active int) {
			for _, jn := range j.jns {
				for i := range jn.flowlets[agg].stripes {
					st := &jn.flowlets[agg].stripes[i]
					st.qmu.Lock()
					queued += len(st.queue) - st.qhead
					if st.active {
						active++
					}
					st.qmu.Unlock()
				}
			}
			return queued, active
		}
		jA.Start()
		jB.Start()
		waitFor(t, "job A's stripe queue to fill", 10*time.Second, func() bool {
			q, _ := stripeLoad(jA)
			return q > 0
		})
		jA.Abort(fmt.Errorf("test stop: %w", ErrJobCanceled))

		waitJob := func(j *Job) <-chan error {
			ch := make(chan error, 1)
			go func() { _, err := j.Wait(); ch <- err }()
			return ch
		}
		select {
		case err := <-waitJob(jA):
			if !errors.Is(err, ErrJobCanceled) {
				t.Errorf("canceled job error = %v, want ErrJobCanceled", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("canceled job did not settle")
		}
		select {
		case err := <-waitJob(jB):
			if err != nil {
				t.Fatalf("surviving job: %v", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("surviving job did not finish")
		}
		if got, want := count(sinkB), count(sinkSolo); !reflect.DeepEqual(got, want) {
			t.Errorf("surviving job output %v, solo run %v", got, want)
		}
		waitFor(t, "every stripe drained and idle", 5*time.Second, func() bool {
			qa, aa := stripeLoad(jA)
			qb, ab := stripeLoad(jB)
			return qa+aa+qb+ab == 0
		})
		cleanup()
		waitFor(t, "goroutines back to baseline", 5*time.Second, func() bool {
			return runtime.NumGoroutine() <= goroutines
		})
	})
}
