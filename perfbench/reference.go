package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"oldelephant/internal/tpch"
	"oldelephant/internal/value"
)

// The reference answers every benchmark statement from the generator's rows
// with plain Go maps, without touching the engine, so a wrong answer from any
// strategy (or a wrong parameter in the paper harness) shows as a mismatch.

// scaleFactor is the TPC-H scale factor of every workload's database.
const scaleFactor = 0.01

// Column ordinals of the generated rows (tpch.DDL order).
const (
	lOrderKey   = 0
	lSuppKey    = 2
	lLineNumber = 3
	lExtPrice   = 5
	lReturnFlag = 8
	lShipDate   = 10

	oOrderKey  = 0
	oCustKey   = 1
	oOrderDate = 4

	cCustKey   = 0
	cNationKey = 2
)

// reference holds the answers the workloads are checked against. The
// generated rows they were computed from are dropped once it is built, so
// they add nothing to the heap the garbage collector scans during a run.
type reference struct {
	points       []paperPoint              // the Figure 2 sweep with its answers
	keys         []int64                   // the fixed seek key set
	seekRows     map[int64][][]value.Value // key -> its lineitems, by l_linenumber
	lineitemRows int
}

func loadReference() (*reference, error) {
	g, err := loadTables()
	if err != nil {
		return nil, err
	}
	ref := &reference{
		points:       g.paperPoints(),
		keys:         g.seekKeys(seekKeyCount),
		seekRows:     make(map[int64][][]value.Value),
		lineitemRows: len(g.lineitem),
	}
	for _, k := range ref.keys {
		ref.seekRows[k] = g.byOrder[k]
	}
	return ref, nil
}

// genDB is the generated core database held as Go values.
type genDB struct {
	lineitem   [][]value.Value
	byOrder    map[int64][][]value.Value // l_orderkey -> its lineitems, by l_linenumber
	orderDate  map[int64]int64           // o_orderkey -> o_orderdate
	orderCust  map[int64]int64           // o_orderkey -> o_custkey
	custNation map[int64]int64           // c_custkey -> c_nationkey
	orderKeys  []int64                   // distinct l_orderkey values, ascending

	shipMin, shipMax   int64
	orderMin, orderMax int64
}

func loadTables() (*genDB, error) {
	gen := tpch.NewGenerator(scaleFactor)
	r := &genDB{
		byOrder:    make(map[int64][][]value.Value),
		orderDate:  make(map[int64]int64),
		orderCust:  make(map[int64]int64),
		custNation: make(map[int64]int64),
	}
	customers, err := gen.Rows("customer")
	if err != nil {
		return nil, err
	}
	for _, c := range customers {
		r.custNation[c[cCustKey].I] = c[cNationKey].I
	}
	orders, err := gen.Rows("orders")
	if err != nil {
		return nil, err
	}
	r.orderMin, r.orderMax = math.MaxInt64, math.MinInt64
	for _, o := range orders {
		d := o[oOrderDate].I
		r.orderDate[o[oOrderKey].I] = d
		r.orderCust[o[oOrderKey].I] = o[oCustKey].I
		r.orderMin, r.orderMax = min(r.orderMin, d), max(r.orderMax, d)
	}
	if r.lineitem, err = gen.Rows("lineitem"); err != nil {
		return nil, err
	}
	r.shipMin, r.shipMax = math.MaxInt64, math.MinInt64
	for _, l := range r.lineitem {
		k := l[lOrderKey].I
		if _, seen := r.byOrder[k]; !seen {
			r.orderKeys = append(r.orderKeys, k)
		}
		r.byOrder[k] = append(r.byOrder[k], l)
		d := l[lShipDate].I
		r.shipMin, r.shipMax = min(r.shipMin, d), max(r.shipMax, d)
	}
	sort.Slice(r.orderKeys, func(i, j int) bool { return r.orderKeys[i] < r.orderKeys[j] })
	for _, rows := range r.byOrder {
		sort.Slice(rows, func(i, j int) bool { return rows[i][lLineNumber].I < rows[j][lLineNumber].I })
	}
	return r, nil
}

// seekKeys returns the fixed key set the seek workloads draw from: n order
// keys spread evenly over the key range. It does not depend on the seed.
func (r *genDB) seekKeys(n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = r.orderKeys[i*len(r.orderKeys)/n]
	}
	return keys
}

// paramDate mirrors the paper harness: the date D such that "col > D"
// selects roughly the given fraction of the column's range.
func paramDate(lo, hi int64, sel float64) int64 {
	if sel >= 1 {
		return lo - 1
	}
	return lo + int64(float64(hi-lo)*(1-sel))
}

// latestAtOrBefore returns the largest date that is <= target, the existing
// date the paper harness picks for the equality queries Q2 and Q5.
func latestAtOrBefore(dates []int64, target int64) int64 {
	best := int64(math.MinInt64)
	for _, d := range dates {
		if d <= target && d > best {
			best = d
		}
	}
	return best
}

// paperPoint is one (query, selectivity) point of the Figure 2 sweep.
type paperPoint struct {
	query  string // Q1..Q7
	sel    float64
	param  string // the parameter as bench.Measurement.Param renders it
	sql    string // the base-table (Row) form of the statement
	design string // the c-table design that answers it under Row(Col)
	want   [][]value.Value
}

// paperSelectivities is the Figure 2 sweep; Q2, Q5 and Q7 are fixed.
var paperSelectivities = []float64{0.01, 0.1, 0.5, 1.0}

// paperPoints builds the 19 points of the sweep with their reference answers.
func (r *genDB) paperPoints() []paperPoint {
	date := func(d int64) string { return value.NewDate(d).String() }
	var pts []paperPoint
	add := func(q, design string, sel float64, param, sqlText string, want [][]value.Value) {
		pts = append(pts, paperPoint{query: q, sel: sel, param: param, sql: sqlText, design: design, want: want})
	}
	var shipDates, orderDates []int64
	for _, l := range r.lineitem {
		shipDates = append(shipDates, l[lShipDate].I)
	}
	for _, d := range r.orderDate {
		orderDates = append(orderDates, d)
	}
	for _, sel := range paperSelectivities {
		d := paramDate(r.shipMin, r.shipMax, sel)
		add("Q1", "D1", sel, date(d),
			fmt.Sprintf("SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '%s' GROUP BY l_shipdate", date(d)),
			r.countBy(func(l []value.Value) bool { return l[lShipDate].I > d }, func(l []value.Value) value.Value { return l[lShipDate] }))
	}
	q2 := latestAtOrBefore(shipDates, (r.shipMin+r.shipMax)/2)
	add("Q2", "D1", 0, date(q2),
		fmt.Sprintf("SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate = DATE '%s' GROUP BY l_suppkey", date(q2)),
		r.countBy(func(l []value.Value) bool { return l[lShipDate].I == q2 }, func(l []value.Value) value.Value { return l[lSuppKey] }))
	for _, sel := range paperSelectivities {
		d := paramDate(r.shipMin, r.shipMax, sel)
		add("Q3", "D1", sel, date(d),
			fmt.Sprintf("SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '%s' GROUP BY l_suppkey", date(d)),
			r.countBy(func(l []value.Value) bool { return l[lShipDate].I > d }, func(l []value.Value) value.Value { return l[lSuppKey] }))
	}
	orderDateOf := func(l []value.Value) int64 { return r.orderDate[l[lOrderKey].I] }
	for _, sel := range paperSelectivities {
		d := paramDate(r.orderMin, r.orderMax, sel)
		add("Q4", "D2", sel, date(d),
			fmt.Sprintf("SELECT o_orderdate, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '%s' GROUP BY o_orderdate", date(d)),
			r.maxShipBy(func(l []value.Value) bool { return orderDateOf(l) > d }, func(l []value.Value) value.Value { return value.NewDate(orderDateOf(l)) }))
	}
	q5 := latestAtOrBefore(orderDates, (r.orderMin+r.orderMax)/2)
	add("Q5", "D2", 0, date(q5),
		fmt.Sprintf("SELECT l_suppkey, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate = DATE '%s' GROUP BY l_suppkey", date(q5)),
		r.maxShipBy(func(l []value.Value) bool { return orderDateOf(l) == q5 }, func(l []value.Value) value.Value { return l[lSuppKey] }))
	for _, sel := range paperSelectivities {
		d := paramDate(r.orderMin, r.orderMax, sel)
		add("Q6", "D2", sel, date(d),
			fmt.Sprintf("SELECT l_suppkey, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '%s' GROUP BY l_suppkey", date(d)),
			r.maxShipBy(func(l []value.Value) bool { return orderDateOf(l) > d }, func(l []value.Value) value.Value { return l[lSuppKey] }))
	}
	add("Q7", "D4", 0, "R",
		"SELECT c_nationkey, SUM(l_extendedprice) FROM lineitem, orders, customer "+
			"WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey AND l_returnflag = 'R' GROUP BY c_nationkey",
		r.revenueByNation("R"))
	return pts
}

func (r *genDB) countBy(keep func([]value.Value) bool, key func([]value.Value) value.Value) [][]value.Value {
	groups := make(map[value.Value]int64)
	for _, l := range r.lineitem {
		if keep(l) {
			groups[key(l)]++
		}
	}
	out := make([][]value.Value, 0, len(groups))
	for k, n := range groups {
		out = append(out, []value.Value{k, value.NewInt(n)})
	}
	return out
}

func (r *genDB) maxShipBy(keep func([]value.Value) bool, key func([]value.Value) value.Value) [][]value.Value {
	groups := make(map[value.Value]int64)
	for _, l := range r.lineitem {
		if !keep(l) {
			continue
		}
		k := key(l)
		if cur, ok := groups[k]; !ok || l[lShipDate].I > cur {
			groups[k] = l[lShipDate].I
		}
	}
	out := make([][]value.Value, 0, len(groups))
	for k, d := range groups {
		out = append(out, []value.Value{k, value.NewDate(d)})
	}
	return out
}

func (r *genDB) revenueByNation(flag string) [][]value.Value {
	groups := make(map[int64]float64)
	for _, l := range r.lineitem {
		if l[lReturnFlag].S == flag {
			groups[r.custNation[r.orderCust[l[lOrderKey].I]]] += l[lExtPrice].F
		}
	}
	out := make([][]value.Value, 0, len(groups))
	for k, s := range groups {
		out = append(out, []value.Value{value.NewInt(k), value.NewFloat(s)})
	}
	return out
}

// sameValue compares one result cell with its reference: floats to a
// relative 1e-9, everything else exactly (kind and value).
func sameValue(got, want value.Value) bool {
	if got.Kind == value.KindFloat || want.Kind == value.KindFloat {
		if got.Kind != want.Kind {
			return false
		}
		return closeFloat(got.F, want.F)
	}
	return got.Kind == want.Kind && got.I == want.I && got.S == want.S
}

func closeFloat(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
}

func rowString(row []value.Value) string {
	s := "("
	for i, v := range row {
		if i > 0 {
			s += ", "
		}
		s += v.String()
	}
	return s + ")"
}

// compareGrouped checks an unordered GROUP BY result against its reference.
// Rows are matched on their first (group) column; every missing, extra or
// differing row is an error.
func compareGrouped(got, want [][]value.Value) error {
	sorted := func(rows [][]value.Value) [][]value.Value {
		out := append([][]value.Value(nil), rows...)
		sort.Slice(out, func(i, j int) bool { return value.Compare(out[i][0], out[j][0]) < 0 })
		return out
	}
	g, w := sorted(got), sorted(want)
	for i, j := 0, 0; i < len(g) || j < len(w); {
		switch {
		case j == len(w) || (i < len(g) && value.Compare(g[i][0], w[j][0]) < 0):
			return fmt.Errorf("unexpected row %s", rowString(g[i]))
		case i == len(g) || value.Compare(g[i][0], w[j][0]) > 0:
			return fmt.Errorf("missing row %s", rowString(w[j]))
		}
		if len(g[i]) != len(w[j]) {
			return fmt.Errorf("row %s has %d columns, want %d", rowString(g[i]), len(g[i]), len(w[j]))
		}
		for c := range w[j] {
			if !sameValue(g[i][c], w[j][c]) {
				return fmt.Errorf("row %s, want %s", rowString(g[i]), rowString(w[j]))
			}
		}
		i++
		j++
	}
	return nil
}

// compareWireRows checks a seek result received over the wire protocol
// (JSON cells decoded with UseNumber) against the reference rows, in order.
func compareWireRows(got [][]any, want [][]value.Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i, row := range want {
		if len(got[i]) != len(row) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(got[i]), len(row))
		}
		for c, w := range row {
			if !sameWireValue(got[i][c], w) {
				return fmt.Errorf("row %d column %d is %v, want %s", i, c, got[i][c], w)
			}
		}
	}
	return nil
}

func sameWireValue(got any, want value.Value) bool {
	switch want.Kind {
	case value.KindInt:
		n, ok := got.(json.Number)
		return ok && string(n) == strconv.FormatInt(want.I, 10)
	case value.KindFloat:
		n, ok := got.(json.Number)
		if !ok {
			return false
		}
		f, err := n.Float64()
		return err == nil && closeFloat(f, want.F)
	case value.KindNull:
		return got == nil
	default:
		s, ok := got.(string)
		return ok && s == want.String()
	}
}
