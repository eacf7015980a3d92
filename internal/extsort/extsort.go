// Package extsort is the single external-sort substrate shared by both
// engines and the SQL layer: a budget-aware run builder that sorts
// in-memory buffers and spills them to a node-local disk as ordered run
// files, a loser-tree k-way merge that streams runs (on disk or in
// memory) back in global order, and a multi-pass merge honoring a merge
// factor (Hadoop's io.sort.factor).
//
// The substrate deliberately owns no cost model of its own: every byte
// it moves goes through the storage.Disk handed to it, so modeled disk
// charges (seek latency, throughput, capacity) attach exactly where
// they did when each engine carried its own spill code. Metrics are
// reported through explicit hooks (BuilderConfig.OnSpill, the onPass
// callback of MergeToFactor) so each caller keeps its own counter names
// and byte-accounting conventions — spill totals and merge pass counts
// are bit-identical to the pre-extsort implementations.
//
// Clients differ only in their record type, ordering and byte format:
//
//   - core's reduce accumulator: records are (key, value) pairs ordered
//     by key, spilling when the node MemoryManager denies a reservation;
//   - mapreduce's map task: records are (partition, key, value) ordered
//     by (partition, key), spilling past io.sort.mb, combined at spill
//     and merge time, multi-pass merged under io.sort.factor;
//   - sqlq's ORDER BY: in-memory SortStable with a row comparator.
package extsort

import (
	"errors"
	"io"
	"slices"
)

// Compare is a three-way comparator: negative when a orders before b,
// zero when equal, positive when after.
type Compare[T any] func(a, b T) int

// SortStable stably sorts s by cmp. Records that compare equal keep
// their arrival order, which is what makes run files preserve
// within-key ordering.
func SortStable[T any](s []T, cmp Compare[T]) { sortStable(s, cmp, nil) }

// sortStable is SortStable through a reusable index scratch, returned
// (possibly grown) for the next call. It pdqsorts the arrival indices
// with ties broken by index — exactly the stable order, at unstable-sort
// speed and without moving records during the sort — then applies the
// permutation to s in place by following its cycles. len(s) must fit
// an int32.
func sortStable[T any](s []T, cmp Compare[T], idx []int32) []int32 {
	n := len(s)
	if n < 2 {
		return idx
	}
	idx = slices.Grow(idx[:0], n)[:n]
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		if c := cmp(s[a], s[b]); c != 0 {
			return c
		}
		return int(a - b)
	})
	// Position i takes the record that arrived at idx[i]. Each cycle is
	// walked once; a visited position is marked by idx[j] = j.
	for i := range idx {
		if int(idx[i]) == i {
			continue
		}
		first := s[i]
		j := i
		for {
			k := int(idx[j])
			idx[j] = int32(j)
			if k == i {
				s[j] = first
				break
			}
			s[j] = s[k]
			j = k
		}
	}
	return idx
}

// Source yields records in nondecreasing order; Next returns io.EOF
// when exhausted. Run files (RunReader) and sorted in-memory slices
// (SliceSource) are both sources, so one merge serves spilled and
// resident data alike.
type Source[T any] interface {
	Next() (T, error)
}

type sliceSource[T any] struct {
	recs []T
	i    int
}

func (s *sliceSource[T]) Next() (T, error) {
	if s.i >= len(s.recs) {
		var zero T
		return zero, io.EOF
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

// SliceSource adapts an already-sorted slice to a merge Source.
func SliceSource[T any](recs []T) Source[T] { return &sliceSource[T]{recs: recs} }

// Budget is the memory-budget protocol consulted by a RunBuilder before
// admitting a record (core.MemoryManager implements it). A denied
// Reserve makes the builder spill its buffer first and then force the
// reservation — a single record larger than the whole budget must still
// be admitted or the job cannot progress.
type Budget interface {
	Reserve(n int64) bool
	ForceReserve(n int64)
	Release(n int64)
}

// ErrNoDisk is returned when a spill is required but the builder has no
// disk to spill to.
var ErrNoDisk = errors.New("extsort: memory exhausted and no spill disk configured")
