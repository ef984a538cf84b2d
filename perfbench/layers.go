package main

import (
	"strings"

	"oldelephant/internal/trace"
)

// spanClass maps an EXPLAIN ANALYZE span to the executor layer it belongs to.
func spanClass(name string) string {
	switch {
	case strings.HasPrefix(name, "SeqScan"), strings.HasPrefix(name, "ClusteredSeek"),
		strings.HasPrefix(name, "IndexSeek"), strings.HasPrefix(name, "ValuesScan"),
		strings.HasPrefix(name, "RowSource"), strings.Contains(name, "ProjectionScan"),
		strings.HasPrefix(name, "ParallelMerge"):
		return "scan"
	case strings.Contains(name, "Join"):
		return "join"
	case strings.Contains(name, "Aggregate"):
		return "agg"
	case name == "Filter", name == "Project", name == "Limit":
		return "filter_project"
	default:
		return "other"
	}
}

var spanClasses = []string{"scan", "join", "agg", "filter_project", "other"}

// addSpans records, at position pos, the self time of each executor layer in
// a finished span tree (a span's wall time minus its children's), and the
// rows that entered the plan from storage against the rows it returned.
func addSpans(lay positions, pos, n int, root *trace.Span) {
	self := make(map[string]float64, len(spanClasses))
	var walk func(s *trace.Span)
	walk = func(s *trace.Span) {
		wall := s.Wall
		for _, c := range s.Children {
			wall -= c.Wall
			walk(c)
		}
		self[spanClass(s.Name)] += ms(wall)
	}
	walk(root)
	for _, c := range spanClasses {
		lay.add("exec."+c+"_ms", pos, n, self[c])
	}
	lay.add("leaf_rows", pos, n, float64(root.LeafRows()))
	lay.add("out_rows", pos, n, float64(root.Rows))
}

// setSpanLayers fills the exec.* per-layer metrics (per round) from the
// positions addSpans recorded.
func setSpanLayers(l map[string]float64, lay positions) {
	for _, c := range spanClasses {
		l["exec."+c+"_ms"] = lay.sumOfMedians("exec." + c + "_ms")
	}
	if out := lay.sumOfMedians("out_rows"); out > 0 {
		l["exec.rows_examined_per_row"] = lay.sumOfMedians("leaf_rows") / out
	}
}

// setTraceLayers reports the traced round next to the sum of its separately
// timed parts, and how much slower the traced round ran than the untraced
// one of the same process.
func setTraceLayers(l map[string]float64, lay positions, untracedRoundMS float64) {
	whole, parts := lay.sumOfMedians("whole_ms"), lay.sumOfMedians("parts_ms")
	l["trace.whole_ms"], l["trace.parts_ms"] = whole, parts
	if whole > 0 {
		l["trace.parts_share"] = parts / whole
	}
	if untracedRoundMS > 0 {
		l["trace.overhead_pct"] = (whole/untracedRoundMS - 1) * 100
	}
}
