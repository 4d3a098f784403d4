package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "workload", Start: 0, End: 100},
		// Two sequential children: self = 100 - (30 + 20).
		{ID: 2, Parent: 1, Name: "round", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "round", Start: 50, End: 70},
		// Concurrent grandchildren overlapping each other: [12, 30) covered
		// once, so round 2's self time is 30 - 18.
		{ID: 4, Parent: 2, Name: "sweep", Start: 12, End: 25},
		{ID: 5, Parent: 2, Name: "sweep", Start: 20, End: 30},
		// A child reaching outside its parent counts only inside it:
		// [60, 70) of round 3 is covered.
		{ID: 6, Parent: 3, Name: "swap", Start: 60, End: 90},
		{ID: 7, Parent: 0, Name: "other-root", Start: 0, End: 5},
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 50, 2: 12, 3: 10, 4: 13, 5: 10, 6: 30, 7: 5}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestCoveredMergesIntervals(t *testing.T) {
	kids := []span{{Start: 5, End: 10}, {Start: 0, End: 3}, {Start: 8, End: 12}, {Start: 12, End: 13}, {Start: 20, End: 30}}
	if got := covered(0, 25, kids); got != 3+8+5 {
		t.Errorf("covered = %d, want 16", got)
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0)
	tr.end(id)
	ran := false
	tr.do("y", id, func() { ran = true })
	if id != 0 || !ran || tr.snapshot() != nil || tr.write("unused") != nil {
		t.Fatal("nil tracer must record nothing and still run the call")
	}
}

func TestTracerRecordsParentsAndWritesSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0)
	tr.do("child", root, func() {})
	open := tr.begin("unclosed", root)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Name != "child" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Fatalf("child %+v not inside root %+v", spans[1], spans[0])
	}
	_ = open
	path := filepath.Join(t.TempDir(), "sub", "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(data, &back); err != nil || len(back) != 2 {
		t.Fatalf("written spans %s: %v", data, err)
	}
}
