package main

import (
	"encoding/json"
	"strings"
	"testing"

	"oldelephant/internal/value"
)

func groupedRows() [][]value.Value {
	return [][]value.Value{
		{value.NewInt(1), value.NewInt(10)},
		{value.NewInt(2), value.NewFloat(0.1 + 0.2)},
		{value.NewInt(3), value.MustParseDate("1995-03-01")},
	}
}

func TestCompareGroupedAcceptsReorderedAnswer(t *testing.T) {
	got := groupedRows()
	got[0], got[2] = got[2], got[0]
	got[1][1] = value.NewFloat(0.3) // within the relative 1e-9 tolerance
	if err := compareGrouped(got, groupedRows()); err != nil {
		t.Fatalf("equal answers reported as different: %v", err)
	}
}

func TestCompareGroupedReportsWrongRow(t *testing.T) {
	cases := map[string]func([][]value.Value) [][]value.Value{
		"wrong count": func(r [][]value.Value) [][]value.Value { r[0][1] = value.NewInt(11); return r },
		"wrong float": func(r [][]value.Value) [][]value.Value { r[1][1] = value.NewFloat(0.3001); return r },
		"wrong kind":  func(r [][]value.Value) [][]value.Value { r[0][1] = value.NewFloat(10); return r },
		"wrong date":  func(r [][]value.Value) [][]value.Value { r[2][1] = value.MustParseDate("1995-03-02"); return r },
		"missing row": func(r [][]value.Value) [][]value.Value { return r[:2] },
		"extra row": func(r [][]value.Value) [][]value.Value {
			return append(r, []value.Value{value.NewInt(4), value.NewInt(1)})
		},
		"wrong group": func(r [][]value.Value) [][]value.Value { r[1][0] = value.NewInt(5); return r },
	}
	for name, corrupt := range cases {
		if err := compareGrouped(corrupt(groupedRows()), groupedRows()); err == nil {
			t.Errorf("%s: not reported", name)
		}
	}
}

func wireRows(t *testing.T, text string) [][]any {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(text))
	dec.UseNumber()
	var rows [][]any
	if err := dec.Decode(&rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestCompareWireRows(t *testing.T) {
	want := [][]value.Value{
		{value.NewInt(7), value.NewFloat(12.5), value.NewString("R"), value.MustParseDate("1996-01-02")},
		{value.NewInt(7), value.NewFloat(3), value.NewString("N"), value.MustParseDate("1996-01-03")},
	}
	if err := compareWireRows(wireRows(t, `[[7, 12.5, "R", "1996-01-02"], [7, 3, "N", "1996-01-03"]]`), want); err != nil {
		t.Fatalf("equal rows reported as different: %v", err)
	}
	bad := map[string]string{
		"wrong row":   `[[7, 12.5, "R", "1996-01-02"], [8, 3, "N", "1996-01-03"]]`,
		"missing row": `[[7, 12.5, "R", "1996-01-02"]]`,
		"wrong type":  `[["7", 12.5, "R", "1996-01-02"], [7, 3, "N", "1996-01-03"]]`,
		"wrong float": `[[7, 12.6, "R", "1996-01-02"], [7, 3, "N", "1996-01-03"]]`,
	}
	for name, text := range bad {
		if err := compareWireRows(wireRows(t, text), want); err == nil {
			t.Errorf("%s: not reported", name)
		}
	}
}

// TestReferenceSweep pins the shape of the reference: 19 points, each with
// a non-empty answer, parameters that select less as the selectivity falls.
func TestReferenceSweep(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	pts := ref.points
	if len(pts) != 19 {
		t.Fatalf("%d sweep points, want 19", len(pts))
	}
	byQuery := map[string][]paperPoint{}
	for _, p := range pts {
		if len(p.want) == 0 {
			t.Errorf("%s@%g: empty reference answer", p.query, p.sel)
		}
		byQuery[p.query] = append(byQuery[p.query], p)
	}
	q3 := byQuery["Q3"]
	total := func(p paperPoint) (n int64) {
		for _, r := range p.want {
			n += r[1].I
		}
		return n
	}
	for i := 1; i < len(q3); i++ {
		if total(q3[i]) < total(q3[i-1]) {
			t.Errorf("Q3 counts fall as selectivity rises: %d at %g, %d at %g", total(q3[i-1]), q3[i-1].sel, total(q3[i]), q3[i].sel)
		}
	}
	if got := total(q3[len(q3)-1]); got != int64(ref.lineitemRows) {
		t.Errorf("Q3 at selectivity 1 counts %d rows, lineitem has %d", got, ref.lineitemRows)
	}
}
