package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// compareMain implements `perfbench compare <parent-dir> <change-dir>`. Each
// directory holds the standard output of runs, one file per run; runs pair
// up by workload and seed. Per workload and per metric it applies the
// paired rule: a change is better only if it wins at least nine tenths of
// the pairs (ties count for neither) AND the medians differ by more than the
// parent's interquartile range, or if every change run beats every parent
// run. Otherwise an end-to-end metric is worse when its median worsened by
// more than its bound, unresolved when the parent's spread exceeds the
// bound, and unchanged only when neither holds. A per-layer metric has no
// bound: it is worse only by the paired rule in reverse, unchanged only when
// every value repeats exactly, and unresolved otherwise.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: perfbench compare <parent-dir> <change-dir>")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	parent, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	change, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	rows, err := compareSets(parent, change)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	printRows(out, rows)
	return 0
}

// loadRecords reads the record line of every regular file in dir.
func loadRecords(dir string) ([]record, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var recs []record
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		rec, err := readRecord(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s holds no run output", dir)
	}
	return recs, nil
}

// readRecord finds the {"record": ...} line of one run's output.
func readRecord(path string) (record, error) {
	f, err := os.Open(path)
	if err != nil {
		return record{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"record":`) {
			continue
		}
		var wrap struct {
			Record *record `json:"record"`
		}
		if err := json.Unmarshal(line, &wrap); err != nil {
			return record{}, fmt.Errorf("%s: %w", path, err)
		}
		return *wrap.Record, nil
	}
	if err := sc.Err(); err != nil {
		return record{}, fmt.Errorf("%s: %w", path, err)
	}
	return record{}, fmt.Errorf("%s: no record line", path)
}

// compareRow is one (workload, metric) verdict.
type compareRow struct {
	Workload, Metric, Unit string
	Pairs                  int
	Parent, Change         [3]float64 // q1, median, q3
	Wins, Losses           int
	Verdict                string
}

// compareSets pairs runs by workload, traced-ness and seed, refuses groups
// whose identities differ, and judges every metric of every group.
func compareSets(parent, change []record) ([]compareRow, error) {
	type key struct {
		workload string
		trace    bool
	}
	group := func(recs []record) map[key][]record {
		g := make(map[key][]record)
		for _, r := range recs {
			k := key{r.Identity.Workload, r.Identity.Trace}
			g[k] = append(g[k], r)
		}
		return g
	}
	pg, cg := group(parent), group(change)
	var keys []key
	for k := range pg {
		if _, ok := cg[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return nil, errors.New("no workload has runs on both sides")
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	var rows []compareRow
	for _, k := range keys {
		ps, cs := pg[k], cg[k]
		id := ps[0].Identity
		for _, r := range append(append([]record(nil), ps...), cs...) {
			if !reflect.DeepEqual(r.Identity, id) {
				return nil, fmt.Errorf("%s: refusing to compare records with different identities:\n  %+v\n  %+v",
					k.workload, id, r.Identity)
			}
		}
		bySeed := func(recs []record) (map[uint64]record, error) {
			m := make(map[uint64]record)
			for _, r := range recs {
				if _, dup := m[r.Seed]; dup {
					return nil, fmt.Errorf("%s: seed %d appears twice on one side", k.workload, r.Seed)
				}
				m[r.Seed] = r
			}
			return m, nil
		}
		pm, err := bySeed(ps)
		if err != nil {
			return nil, err
		}
		cm, err := bySeed(cs)
		if err != nil {
			return nil, err
		}
		var seeds []uint64
		for s := range pm {
			if _, ok := cm[s]; ok {
				seeds = append(seeds, s)
			}
		}
		if len(seeds) == 0 {
			return nil, fmt.Errorf("%s: no seed was run on both sides", k.workload)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		defs := endToEnd
		if k.trace {
			defs = perLayer
		}
		for _, d := range defs {
			var p, c []float64
			for _, s := range seeds {
				pv, ok1 := pm[s].Metrics[d.Name]
				cv, ok2 := cm[s].Metrics[d.Name]
				if ok1 && ok2 {
					p, c = append(p, pv), append(c, cv)
				}
			}
			if len(p) == 0 {
				continue
			}
			row := judge(d, p, c)
			row.Workload = k.workload
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// judge applies the paired rule to one metric's parent and change values
// (p[i] and c[i] from the same seed).
func judge(d metricDef, p, c []float64) compareRow {
	row := compareRow{Metric: d.Name, Unit: d.Unit, Pairs: len(p)}
	better := func(a, b float64) bool { // a better than b
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := range p {
		switch {
		case better(c[i], p[i]):
			row.Wins++
		case better(p[i], c[i]):
			row.Losses++
		}
	}
	row.Parent = spreadOf(p)
	row.Change = spreadOf(c)
	pMed, cMed := row.Parent[1], row.Change[1]
	iqr := row.Parent[2] - row.Parent[0]
	need := (9*len(p) + 9) / 10 // nine tenths of the pairs, rounded up
	apart := math.Abs(cMed-pMed) > iqr
	allBetter := true
	for _, cv := range c {
		for _, pv := range p {
			if !better(cv, pv) {
				allBetter = false
			}
		}
	}
	spread := iqr / math.Abs(pMed)
	switch {
	case row.Wins >= need && apart && better(cMed, pMed), allBetter:
		row.Verdict = "better"
	case d.Bound == 0:
		// A per-layer metric has no bound: only the paired rule speaks.
		switch {
		case row.Losses >= need && apart && better(pMed, cMed):
			row.Verdict = "worse"
		case iqr == 0 && cMed == pMed:
			row.Verdict = "unchanged"
		default:
			row.Verdict = "unresolved"
		}
	case better(pMed, cMed) && math.Abs(cMed-pMed) > d.Bound*math.Abs(pMed):
		row.Verdict = "worse"
	case spread > d.Bound:
		row.Verdict = "unresolved"
	default:
		row.Verdict = "unchanged"
	}
	return row
}

// spreadOf returns q1, median and q3, with a single sample as all three.
func spreadOf(xs []float64) [3]float64 {
	if q1, q2, q3, ok := quartiles(xs); ok {
		return [3]float64{q1, q2, q3}
	}
	return [3]float64{xs[0], xs[0], xs[0]}
}

func printRows(out io.Writer, rows []compareRow) {
	fmt.Fprintf(out, "%-15s %-34s %-9s %5s  %-32s %-32s %9s  %s\n",
		"workload", "metric", "unit", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "wins/loss", "verdict")
	for _, r := range rows {
		fmt.Fprintf(out, "%-15s %-34s %-9s %5d  %-32s %-32s %4d/%-4d  %s\n",
			r.Workload, r.Metric, r.Unit, r.Pairs,
			fmt.Sprintf("%.5g [%.5g, %.5g]", r.Parent[1], r.Parent[0], r.Parent[2]),
			fmt.Sprintf("%.5g [%.5g, %.5g]", r.Change[1], r.Change[0], r.Change[2]),
			r.Wins, r.Losses, r.Verdict)
	}
}
