package extsort

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/storage"
)

// TestSortStableMatchesStdlib: SortStable yields exactly the order of
// slices.SortStableFunc — equal keys keep their arrival order — on random
// records with heavy key duplication, across the sizes where sort
// implementations switch strategy (tiny, around the insertion-sort cutoff,
// and a few thousand).
func TestSortStableMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{0, 1, 2, 3, 12, 19, 20, 21, 33, 100, 257, 1000, 4096}
	for _, n := range sizes {
		for _, distinct := range []int{1, 3, 17, 1 << 20} {
			recs := make([]testRec, n)
			for i := range recs {
				recs[i] = testRec{key: fmt.Sprintf("k%d", rng.Intn(distinct)), seq: int64(i)}
			}
			want := slices.Clone(recs)
			slices.SortStableFunc(want, testCmp)
			SortStable(recs, testCmp)
			if !slices.Equal(recs, want) {
				t.Fatalf("n=%d distinct=%d: SortStable differs from slices.SortStableFunc", n, distinct)
			}
		}
	}
}

// TestBuilderSpillsReuseSortScratch: every spill sorts through the
// builder's retained index scratch, and each run holds exactly the stably
// sorted records of its buffer.
func TestBuilderSpillsReuseSortScratch(t *testing.T) {
	disk := storage.NewMemDisk(0)
	b, spills := testBuilder(disk, nil, 40*10)
	rng := rand.New(rand.NewSource(5))
	var want [][]testRec
	var cur []testRec
	var scratch *int32
	for i := 0; i < 200; i++ {
		r := testRec{key: fmt.Sprintf("k%d", rng.Intn(7)), seq: int64(i)}
		cur = append(cur, r)
		if err := b.Add(r, 10); err != nil {
			t.Fatal(err)
		}
		if len(cur) == 40 {
			slices.SortStableFunc(cur, testCmp)
			want = append(want, cur)
			cur = nil
			if len(b.idx) != 40 {
				t.Fatalf("spill %d: index scratch len %d, want 40", len(want), len(b.idx))
			}
			if scratch != nil && &b.idx[0] != scratch {
				t.Fatalf("spill %d reallocated the index scratch", len(want))
			}
			scratch = &b.idx[0]
		}
	}
	if *spills != 5 || len(b.Runs()) != 5 {
		t.Fatalf("spills = %d, runs = %d, want 5", *spills, len(b.Runs()))
	}
	for i, name := range b.Runs() {
		rr, err := OpenRun(disk, name, testFormat{})
		if err != nil {
			t.Fatal(err)
		}
		got := mergeAll(t, []Source[testRec]{rr})
		rr.Close()
		if !slices.Equal(got, want[i]) {
			t.Fatalf("run %d = %v, want %v", i, got, want[i])
		}
	}
}

// mrShapedRec mirrors the MapReduce engine's map-side sort record.
type mrShapedRec struct {
	part  int
	key   string
	value any
}

func mrShapedCmp(a, b mrShapedRec) int {
	if a.part != b.part {
		return a.part - b.part
	}
	return strings.Compare(a.key, b.key)
}

// BenchmarkSortStable sorts one WordCount map spill: ~18k Zipfian words
// hashed over 8 partitions with int64 counts, the buffer a 1 MiB
// io.sort.mb holds. The input is re-copied outside the timer each round.
func BenchmarkSortStable(b *testing.B) {
	text := datagen.Text(datagen.TextConfig{Seed: 7, Vocabulary: 1000, WordsPerLine: 1, Lines: 18000})
	var src []mrShapedRec
	for _, w := range strings.Fields(string(text)) {
		h := 0
		for i := 0; i < len(w); i++ {
			h = h*31 + int(w[i])
		}
		src = append(src, mrShapedRec{part: h & 7, key: w, value: int64(1)})
	}
	buf := make([]mrShapedRec, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(buf, src)
		b.StartTimer()
		SortStable(buf, mrShapedCmp)
	}
	b.ReportMetric(float64(len(src)), "recs/op")
}
