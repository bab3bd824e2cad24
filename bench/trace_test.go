package main

import "testing"

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		span     interval
		children []interval
		want     int64
	}{
		{"no children", interval{100, 200}, nil, 100},
		{"one child", interval{100, 200}, []interval{{120, 150}}, 70},
		{"two disjoint", interval{100, 200}, []interval{{110, 120}, {150, 190}}, 50},
		{"overlapping workers count once", interval{100, 200}, []interval{{110, 160}, {140, 180}}, 30},
		{"nested child", interval{100, 200}, []interval{{110, 190}, {120, 130}}, 20},
		{"clipped to the span", interval{100, 200}, []interval{{50, 120}, {190, 300}}, 70},
		{"outside the span", interval{100, 200}, []interval{{10, 20}, {300, 400}}, 100},
		{"fully covered", interval{100, 200}, []interval{{100, 200}}, 0},
		{"unsorted input", interval{0, 100}, []interval{{60, 70}, {10, 20}, {15, 30}}, 70},
	} {
		if got := selfTime(c.span, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAssignParentsAndSumLayers(t *testing.T) {
	// Request 0: a client batch holding one frame, in which two workers
	// each run an index call that wraps a hub call. Request 1: a lone
	// TryQuery answered from the cache (no child).
	spans := []span{
		{kind: kHubBatch, req: 0, queries: 3, start: 32, end: 48},
		{kind: kIndexBatch, req: 0, queries: 3, start: 30, end: 50},
		{kind: kHubQuery, req: 0, queries: 1, start: 41, end: 59},
		{kind: kIndexDistance, req: 0, queries: 1, start: 40, end: 60},
		{kind: kFrame, req: 0, start: 20, end: 70},
		{kind: kClientBatch, req: 0, queries: 4, start: 0, end: 100},
		{kind: kTryQuery, req: 1, queries: 1, start: 200, end: 230},
	}
	assignParents(spans)
	name := func(i int32) string {
		if i < 0 {
			return "root"
		}
		return kindInfo[spans[i].kind].name
	}
	want := map[spanKind]string{
		kClientBatch:   "root",
		kFrame:         "hubclient.DistanceBatch",
		kIndexBatch:    "netserve.frame",
		kIndexDistance: "netserve.frame",
		kHubBatch:      "index.DistanceBatch",
		kHubQuery:      "index.Distance",
		kTryQuery:      "root",
	}
	for _, s := range spans {
		if got := name(s.parent); got != want[s.kind] {
			t.Errorf("parent of %s = %s, want %s", kindInfo[s.kind].name, got, want[s.kind])
		}
	}
	lt := sumLayers(spans, 0, 1)
	// Client: 100 − frame 50. Frame: 50 − union of index [30,60] = 20.
	// Index: (20−16) + (20−18). Hub: its own durations.
	for _, c := range []struct {
		kind spanKind
		self int64
	}{{kClientBatch, 50}, {kFrame, 20}, {kIndexBatch, 4}, {kIndexDistance, 2}, {kHubBatch, 16}, {kHubQuery, 18}} {
		if lt[c.kind].selfNS != c.self {
			t.Errorf("%s self = %d, want %d", kindInfo[c.kind].name, lt[c.kind].selfNS, c.self)
		}
	}
	// The two workers overlap for 10 ns, which both their layers own:
	// self times sum to the root's duration plus the overlap.
	var sum int64
	for k := range lt {
		sum += lt[k].selfNS
	}
	if sum != 110 {
		t.Errorf("self times sum to %d, want 100 + 10 of overlap", sum)
	}
	if lt[kTryQuery].spans != 0 {
		t.Errorf("request 1 leaked into the [0,1) range")
	}
	if got := sumLayers(spans, 1, 2)[kTryQuery].selfNS; got != 30 {
		t.Errorf("cache-hit TryQuery self = %d, want 30", got)
	}
}
