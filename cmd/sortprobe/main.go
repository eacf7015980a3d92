// Command sortprobe exercises every spill/sort/merge path in the repo —
// the MapReduce map-side sort buffer with multi-pass merging, the
// reduce-side external merge, and the HAMR reduce accumulator spill —
// over deterministic inputs, and prints the modeled-cost invariants
// (spill bytes, spill/merge-pass counts, disk byte totals) plus a SHA-256
// of each job's output. Run it before and after a change to the sort
// substrate: every printed line must be identical. The workloads are the
// sort family of the invariance kit (internal/bench), whose output hashes
// `go test -v -run TestInvariance ./internal/bench/` pins.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/hamr-go/hamr/internal/bench"
)

// vclock runs every probe cluster under a virtual clock. The probe's
// cost models are zero-delay, so the printed lines must stay identical
// either way — which is exactly what CI diffs.
var vclock = flag.Bool("vclock", false, "pay modeled delays on a virtual clock instead of sleeping")

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func printCounters(label string, r *bench.KitRun, names ...string) {
	fmt.Printf("%s: %s\n", label, r.Counters(names...))
}

func printHash(label string, r *bench.KitRun) {
	hash, err := r.Hash()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: output=%s\n", label, hash)
}

func probeMRWordCount(p bench.Profile, withCombiner bool) {
	r, err := p.SortWordCount(withCombiner)
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	label := "mr-wordcount"
	if withCombiner {
		label = "mr-wordcount+comb"
	}
	printCounters(label, r,
		"mr.spills", "mr.spill.bytes", "mr.merge.passes", "mr.shuffle.bytes",
		"mr.reduce.disk.merges", "disk.read.bytes", "disk.write.bytes")
	printHash(label, r)
}

func probeMRTeraSort(p bench.Profile) {
	r, err := p.SortTeraSort()
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	printCounters("mr-terasort", r,
		"mr.spills", "mr.spill.bytes", "mr.merge.passes", "mr.shuffle.bytes",
		"mr.reduce.disk.merges", "disk.read.bytes", "disk.write.bytes")
	printHash("mr-terasort", r)
}

func probeHAMRReduceSpill(p bench.Profile) {
	r, err := p.SortReduceSpill()
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	printCounters("hamr-reduce-spill", r,
		"reduce.spills", "reduce.spill.bytes", "disk.read.bytes", "disk.write.bytes")
	hash, err := r.Hash()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("hamr-reduce-spill: %s\n", hash)
	// Spill runs must be cleaned up after the merge: what is left is the
	// job's own input parts.
	leftover := 0
	for _, d := range r.C.Disks() {
		leftover += len(d.List(""))
	}
	fmt.Printf("hamr-reduce-spill: leftover-files=%d\n", leftover)
}

func main() {
	flag.Parse()
	p := bench.Profile{VClock: *vclock}
	probeMRWordCount(p, false)
	probeMRWordCount(p, true)
	probeMRTeraSort(p)
	probeHAMRReduceSpill(p)
}
