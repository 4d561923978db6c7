package main

import (
	"fmt"
	"io"
	"sort"

	"bfast/internal/obs"
)

// Self time and coverage over obs.SpanNode trees. A span's self time is
// its duration minus the union of its children's intervals, each child
// clipped to the parent; children that overlap are counted once, and a
// child outside its parent counts only where it overlaps it.

// coveredNs returns how much of n's interval its children cover.
func coveredNs(n *obs.SpanNode) int64 {
	lo, hi := n.StartNs, n.StartNs+n.DurNs
	ivs := make([][2]int64, 0, len(n.Children))
	for i := range n.Children {
		c := &n.Children[i]
		a, b := max(c.StartNs, lo), min(c.StartNs+c.DurNs, hi)
		if b > a {
			ivs = append(ivs, [2]int64{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	for _, iv := range ivs {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
		}
		end = max(end, iv[1])
	}
	return total
}

// selfNs is n's duration not covered by any child.
func selfNs(n *obs.SpanNode) int64 { return n.DurNs - coveredNs(n) }

// coverage is the share of n's duration its children cover, in [0, 1];
// a zero-length span counts as fully covered.
func coverage(n *obs.SpanNode) float64 {
	if n.DurNs <= 0 {
		return 1
	}
	return float64(coveredNs(n)) / float64(n.DurNs)
}

// addSelf adds the self time of every node of the tree to into, keyed
// by span name. The scheduler's loop span is keyed under its parent
// ("kernel.invert/sched.foreach"): it is the parallel body of whichever
// stage opened it.
func addSelf(n *obs.SpanNode, into map[string]int64) {
	addSelfUnder(n, "", into)
}

func addSelfUnder(n *obs.SpanNode, parent string, into map[string]int64) {
	key := n.Name
	if key == "sched.foreach" && parent != "" {
		key = parent + "/" + key
	}
	into[key] += selfNs(n)
	for i := range n.Children {
		addSelfUnder(&n.Children[i], n.Name, into)
	}
}

// totalNs sums the full duration of every node named name, not
// descending into a match (so a name nested under itself counts once).
func totalNs(n *obs.SpanNode, name string) int64 {
	if n.Name == name {
		return n.DurNs
	}
	var t int64
	for i := range n.Children {
		t += totalNs(&n.Children[i], name)
	}
	return t
}

// treeSet is the span trees of one kind of request in a traced phase.
type treeSet []*obs.SpanNode

// meanMs is the mean per tree of the total time in spans named name.
func (ts treeSet) meanMs(name string) float64 {
	if len(ts) == 0 {
		return 0
	}
	return float64(ts.sumNs(name)) / float64(len(ts)) / 1e6
}

func (ts treeSet) sumNs(name string) int64 {
	var t int64
	for _, n := range ts {
		t += totalNs(n, name)
	}
	return t
}

func (ts treeSet) selfByName() map[string]int64 {
	self := map[string]int64{}
	for _, n := range ts {
		addSelf(n, self)
	}
	return self
}

// writeLedger prints the mean self time per request of every span name
// in the trees, largest first, and checks that the self times add up to
// the mean root duration.
func writeLedger(w io.Writer, label string, ts treeSet) {
	if len(ts) == 0 {
		return
	}
	self := ts.selfByName()
	var root int64
	for _, n := range ts {
		root += n.DurNs
	}
	names := make([]string, 0, len(self))
	var sum int64
	for name, ns := range self {
		names = append(names, name)
		sum += ns
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	k := float64(len(ts)) * 1e6
	fmt.Fprintf(w, "ledger %s: %d span trees, mean root %.4f ms, self times sum to %.2f%% of it\n",
		label, len(ts), float64(root)/k, 100*float64(sum)/float64(root))
	for _, name := range names {
		fmt.Fprintf(w, "ledger %s   %-26s %10.4f ms  %6.2f%%\n",
			label, name, float64(self[name])/k, 100*float64(self[name])/float64(root))
	}
}
