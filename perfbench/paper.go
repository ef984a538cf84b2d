package main

import (
	"fmt"
	"math/rand"
	"time"

	"oldelephant/internal/bench"
	"oldelephant/internal/core/rewrite"
	"oldelephant/internal/engine"
	"oldelephant/internal/exec"
	"oldelephant/internal/plan"
	"oldelephant/internal/sql"
	"oldelephant/internal/tpch"
	"oldelephant/internal/value"
)

// The paper workloads run the Figure 2 sweep cold, in process and serially,
// under one strategy each, so that every strategy's sweep time has its own
// bound: 19 points (Q1, Q3, Q4, Q6 at four selectivities; Q2, Q5, Q7 fixed),
// the buffer pool emptied before every SQL statement and the plan cache off,
// as bench.Harness.Run measures them. The seed shuffles the statement order
// of every round.

type strategy int

const (
	strategyRow strategy = iota
	strategyRowMV
	strategyRowCol
	strategyColOpt
)

func (s strategy) bench() bench.Strategy {
	return [...]bench.Strategy{bench.StrategyRow, bench.StrategyRowMV, bench.StrategyRowCol, bench.StrategyColOpt}[s]
}

// paperRun drives one strategy over the sweep's points.
type paperRun struct {
	h      *bench.Harness
	s      strategy
	points []paperPoint
	// colOpt holds the round's ColOpt executor plans, one per point, built
	// before the round's clock starts: bench.Harness.ColOptOperator resolves
	// Q2's and Q5's parameters with SQL queries on the row engine, which is
	// harness work, not ColOpt's.
	colOpt    []exec.BatchOperator
	colOptErr []error
}

// buildColOptPlans builds the next round's ColOpt plans (a plan runs once).
func (pr *paperRun) buildColOptPlans() {
	if pr.s != strategyColOpt {
		return
	}
	pr.colOpt = make([]exec.BatchOperator, len(pr.points))
	pr.colOptErr = make([]error, len(pr.points))
	for i, p := range pr.points {
		pr.colOpt[i], pr.colOptErr[i] = pr.h.ColOptOperator(bench.QueryID(p.query), p.sel)
	}
}

func paperWorkload(s strategy) workloadFunc {
	return func(cfg config) (*report, error) {
		rep := newReport()
		h, setupS, heapMB, err := buildMedian(func() (*bench.Harness, error) {
			return bench.NewHarness(bench.DefaultConfig())
		}, func(*bench.Harness) {})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.e2e["setup_s"], rep.e2e["setup_heap_mb"] = setupS, heapMB
		rep.e2e["stored_pages"] = float64(h.Engine.TotalDataPages())
		pr := &paperRun{h: h, s: s, points: cfg.ref.points}
		seq, rnd, err := pr.crossCheck(rep)
		if err != nil {
			return nil, err
		}

		untraced := pr.window(cfg, rep, false)
		rep.e2e["ops_per_s"] = untraced.opsPerSec()
		rep.e2e["round_ms"] = untraced.lat.sumOfMedians("wall")
		untraced.print("untraced")
		if !cfg.trace {
			return rep, nil
		}

		loadS, err := timeLoadCore()
		if err != nil {
			return nil, err
		}
		traced := pr.window(cfg, rep, true)
		traced.print("traced")
		l, lay := rep.layers, traced.lay
		l["tpch.load_s"] = loadS
		l["sql.parse_us"] = median(lay.pooled("parse_us"))
		l["sql.normalize_us"] = median(lay.pooled("normalize_us"))
		l["plan.plan_us"] = median(lay.pooled("plan_us"))
		l["engine.exec_us"] = median(lay.pooled("exec_us"))
		switch s {
		case strategyRowMV:
			l["matview.rewrite_ms"] = lay.sumOfMedians("rewrite_ms")
		case strategyRowCol:
			l["rewrite.rewrite_ms"] = lay.sumOfMedians("rewrite_ms")
		case strategyColOpt:
			l["colstore.exec_ms"] = lay.sumOfMedians("colstore_ms")
		}
		setSpanLayers(l, lay)
		l["storage.seq_reads"], l["storage.rand_reads"] = seq, rnd
		l["runtime.alloc_kb_per_op"], l["runtime.gc_cycles_per_kop"] = untraced.allocKB, untraced.gcPerKop
		setTraceLayers(l, lay, rep.e2e["round_ms"])
		return rep, nil
	}
}

// crossCheck runs every point once through bench.Harness.Run, the paper's own
// measurement, and checks that the harness resolved the same parameter and
// returned the reference's row count. It returns the sweep's page reads
// (sequential, random) and prints its modeled disk time.
func (pr *paperRun) crossCheck(rep *report) (seq, rnd float64, err error) {
	var modeled time.Duration
	for _, p := range pr.points {
		m, err := pr.h.Run(bench.QueryID(p.query), pr.s.bench(), p.sel)
		if err != nil {
			return 0, 0, fmt.Errorf("bench.Harness.Run %s@%g: %w", p.query, p.sel, err)
		}
		if m.Param != p.param {
			rep.mismatch("%s@%g under %s: harness parameter %s, reference %s", p.query, p.sel, m.Strategy, m.Param, p.param)
		}
		if m.Rows != len(p.want) {
			rep.mismatch("%s@%g under %s: harness returned %d rows, reference %d", p.query, p.sel, m.Strategy, m.Rows, len(p.want))
		}
		modeled += m.ModeledDisk
		seq += float64(m.IO.SeqReads)
		rnd += float64(m.IO.RandReads)
	}
	fmt.Printf("# modeled disk time per sweep (%s): %.4f ms\n", pr.s.bench(), ms(modeled))
	return seq, rnd, nil
}

// statementSQL resolves the SQL a row-engine strategy executes: the base
// query, its materialized-view rewriting, or its c-table rewriting.
func (pr *paperRun) statementSQL(p paperPoint) (string, error) {
	switch pr.s {
	case strategyRowMV:
		text, matched, err := pr.h.Views.RewriteSQL(p.sql)
		if err == nil && !matched {
			err = fmt.Errorf("no materialized view matches %s", p.query)
		}
		return text, err
	case strategyRowCol:
		return rewrite.New(pr.h.Designs[p.design]).RewriteSQL(p.sql)
	default:
		return p.sql, nil
	}
}

// execute runs one point and returns its rows and the latency of the
// statement: view or c-table rewriting, parse, plan and execution for the
// row-engine strategies (after the buffer pool is emptied), the executor
// plan's drain for ColOpt, as bench.Harness.Run times it.
func (pr *paperRun) execute(i int, p paperPoint) ([][]value.Value, time.Duration, error) {
	if pr.s == strategyColOpt {
		if err := pr.colOptErr[i]; err != nil {
			return nil, 0, err
		}
		start := time.Now()
		rows, err := exec.DrainBatches(pr.colOpt[i])
		return rows, time.Since(start), err
	}
	pr.h.Engine.ResetBufferPool()
	start := time.Now()
	text, err := pr.statementSQL(p)
	if err != nil {
		return nil, 0, err
	}
	res, err := pr.h.Engine.Query(text)
	if err != nil {
		return nil, 0, err
	}
	return res.Rows, time.Since(start), nil
}

// executeTraced runs one point with EXPLAIN ANALYZE instrumentation and
// records its per-layer parts at position pos. The parse, normalize and plan
// times come from timing those public calls again on the executed SQL text.
func (pr *paperRun) executeTraced(pos int, p paperPoint, lay positions) ([][]value.Value, time.Duration, error) {
	n := len(pr.points)
	if pr.s == strategyColOpt {
		if err := pr.colOptErr[pos]; err != nil {
			return nil, 0, err
		}
		root, ok := pr.colOpt[pos].(exec.Operator)
		if !ok {
			return nil, 0, fmt.Errorf("ColOpt plan for %s is not an exec.Operator", p.query)
		}
		inst, span := exec.InstrumentPlan(root)
		start := time.Now()
		rows, err := exec.DrainBatches(exec.AsBatchOperator(inst))
		whole := time.Since(start)
		if err != nil {
			return nil, 0, err
		}
		lay.add("colstore_ms", pos, n, ms(span.Wall))
		lay.add("exec_us", pos, n, us(span.Wall))
		addSpans(lay, pos, n, span)
		lay.add("whole_ms", pos, n, ms(whole))
		lay.add("parts_ms", pos, n, ms(span.Wall))
		return rows, whole, nil
	}
	pr.h.Engine.ResetBufferPool()
	start := time.Now()
	text, err := pr.statementSQL(p)
	if err != nil {
		return nil, 0, err
	}
	rewriteTime := time.Since(start)
	res, err := pr.h.Engine.QueryWith(engine.QueryOptions{Trace: true}, text)
	whole := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	parseTime, normTime, planTime, err := timeFrontEnd(pr.h.Engine, text)
	if err != nil {
		return nil, 0, err
	}
	lay.add("rewrite_ms", pos, n, ms(rewriteTime))
	lay.add("parse_us", pos, n, us(parseTime))
	lay.add("normalize_us", pos, n, us(normTime))
	lay.add("plan_us", pos, n, us(planTime))
	lay.add("exec_us", pos, n, us(res.Stats.Wall))
	addSpans(lay, pos, n, res.Trace)
	lay.add("whole_ms", pos, n, ms(whole))
	lay.add("parts_ms", pos, n, ms(rewriteTime+parseTime+planTime+res.Trace.Wall))
	return res.Rows, whole, nil
}

// timeFrontEnd times sql.ParseSelect, sql.Normalize and Planner.PlanSelect
// on one statement, with the planner configured the way the engine's is.
func timeFrontEnd(e *engine.Engine, text string) (parse, norm, planT time.Duration, err error) {
	start := time.Now()
	stmt, err := sql.ParseSelect(text)
	parse = time.Since(start)
	if err != nil {
		return 0, 0, 0, err
	}
	start = time.Now()
	sql.Normalize(text)
	norm = time.Since(start)
	planner := plan.NewPlanner(e.Catalog())
	planner.DisableCompressed = !e.Compressed()
	planner.DisableVectorized = !e.Vectorized()
	start = time.Now()
	_, err = planner.PlanSelect(stmt)
	return parse, norm, time.Since(start), err
}

// paperWindow is the outcome of one timed window.
type paperWindow struct {
	ops, rounds       int64
	elapsed           time.Duration
	roundWalls        []float64 // wall time of each whole round, in seconds
	lat, lay          positions
	allocKB, gcPerKop float64
}

// opsPerSec is the sweep's statement count over the median round's wall
// time, which covers everything a round does (buffer-pool resets, plan
// building and answer checks included); the median keeps a stall in one
// round from moving the rate.
func (w paperWindow) opsPerSec() float64 {
	return float64(w.ops/w.rounds) / median(w.roundWalls)
}

func (w paperWindow) print(label string) {
	fmt.Printf("# %s window: %d rounds, %d statements in %.3f s, round %.4f ms\n",
		label, w.rounds, w.ops, w.elapsed.Seconds(), w.lat.sumOfMedians("wall"))
}

// window runs whole rounds of the sweep until the window has elapsed. The
// first round checks every result in full against the reference, later
// rounds check row counts.
func (pr *paperRun) window(cfg config, rep *report, traced bool) paperWindow {
	n := len(pr.points)
	w := paperWindow{lat: positions{}, lay: positions{}}
	rng := rand.New(rand.NewSource(cfg.seed))
	order := rng.Perm(n)
	mem := startMemWindow()
	start := time.Now()
	for ; w.rounds == 0 || time.Since(start) < cfg.window; w.rounds++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		buildStart := time.Now()
		pr.buildColOptPlans()
		start = start.Add(time.Since(buildStart)) // the window's clock stops too
		roundStart := time.Now()
		for _, i := range order {
			p := pr.points[i]
			var rows [][]value.Value
			var wall time.Duration
			var err error
			if traced {
				rows, wall, err = pr.executeTraced(i, p, w.lay)
			} else {
				rows, wall, err = pr.execute(i, p)
			}
			rep.attempted++
			w.ops++
			if err != nil {
				rep.failure(fmt.Errorf("%s@%g under %s: %w", p.query, p.sel, pr.s.bench(), err))
				continue
			}
			w.lat.add("wall", i, n, ms(wall))
			if w.rounds == 0 {
				if err := compareGrouped(rows, p.want); err != nil {
					rep.mismatch("%s@%g under %s: %v", p.query, p.sel, pr.s.bench(), err)
				}
			} else if len(rows) != len(p.want) {
				rep.mismatch("%s@%g under %s: %d rows, reference %d", p.query, p.sel, pr.s.bench(), len(rows), len(p.want))
			}
		}
		w.roundWalls = append(w.roundWalls, time.Since(roundStart).Seconds())
	}
	w.elapsed = time.Since(start)
	w.allocKB, w.gcPerKop = mem.perOp(w.ops)
	return w
}

// timeLoadCore times loading the core TPC-H tables into a fresh in-memory
// engine, the part of every workload's set-up that the tpch package does.
func timeLoadCore() (float64, error) {
	start := time.Now()
	if err := tpch.NewGenerator(scaleFactor).LoadCore(engine.New(engine.Options{})); err != nil {
		return 0, fmt.Errorf("tpch load: %w", err)
	}
	return time.Since(start).Seconds(), nil
}
