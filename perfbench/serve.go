package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"oldelephant/internal/engine"
	"oldelephant/internal/server"
	"oldelephant/internal/tpch"
	"oldelephant/internal/value"
)

// The serving workloads drive server.Server over loopback TCP with the
// newline-JSON wire protocol, from closed-loop clients in this process.

// seekKeyCount bounds the distinct seek statements so that all of them stay
// in the engine's 256-entry plan cache.
const seekKeyCount = 200

// seekBatch is how many seeks a serve-seek client sends between looks at
// the clock; the throughput is taken over the median batch.
const seekBatch = 250

func seekSQL(k int64) string {
	return "SELECT * FROM lineitem WHERE l_orderkey = " + strconv.FormatInt(k, 10)
}

// wireClient speaks the wire protocol over one connection.
type wireClient struct {
	conn net.Conn
	w    *bufio.Writer
	enc  *json.Encoder
	dec  *json.Decoder
}

type wireRequest struct {
	Op  string `json:"op"`
	SQL string `json:"sql,omitempty"`
}

type wireResponse struct {
	OK     bool    `json:"ok"`
	Error  string  `json:"error"`
	Rows   [][]any `json:"rows"`
	WallUS int64   `json:"wall_us"`
}

func dial(addr string) (*wireClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(conn)
	dec := json.NewDecoder(bufio.NewReader(conn))
	dec.UseNumber()
	return &wireClient{conn: conn, w: w, enc: json.NewEncoder(w), dec: dec}, nil
}

// query sends one statement and returns the response and the round trip.
func (c *wireClient) query(text string) (wireResponse, time.Duration, error) {
	var resp wireResponse
	start := time.Now()
	if err := c.enc.Encode(wireRequest{Op: "query", SQL: text}); err != nil {
		return resp, 0, err
	}
	if err := c.w.Flush(); err != nil {
		return resp, 0, err
	}
	if err := c.dec.Decode(&resp); err != nil {
		return resp, 0, err
	}
	rtt := time.Since(start)
	if !resp.OK {
		return resp, rtt, fmt.Errorf("%s: %s", text, resp.Error)
	}
	return resp, rtt, nil
}

func (c *wireClient) close() { c.conn.Close() }

// served is an engine behind a server listening on a loopback port.
type served struct {
	eng   *engine.Engine
	srv   *server.Server
	fs    *memFS // the durable engine's in-memory filesystem, if any
	addr  string
	done  chan error // Serve's result
	loadS float64    // time spent in tpch.LoadCore
}

func serve(e *engine.Engine) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{eng: e, srv: server.New(e, server.Options{}), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the server, waits for Serve to return and closes the engine.
// It runs after every check, so a failure is reported and changes nothing.
func (s *served) stop() {
	s.srv.Close()
	if err := <-s.done; err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: server: %v\n", err)
	}
	if err := s.eng.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: closing the engine: %v\n", err)
	}
}

// loadCore loads the core TPC-H tables and records how long it took.
func (s *served) loadCore() error {
	start := time.Now()
	err := tpch.NewGenerator(scaleFactor).LoadCore(s.eng)
	s.loadS = time.Since(start).Seconds()
	return err
}

// dialClients opens n connections to the server.
func (s *served) dialClients(n int) ([]*wireClient, error) {
	var clients []*wireClient
	for i := 0; i < n; i++ {
		c, err := dial(s.addr)
		if err != nil {
			closeClients(clients)
			return nil, err
		}
		clients = append(clients, c)
	}
	return clients, nil
}

func closeClients(clients []*wireClient) {
	for _, c := range clients {
		c.close()
	}
}

// tally is one client goroutine's private record of a window: latency and
// server-reported execution time per round position, and its outcomes.
type tally struct {
	rtt, exec                     positions
	attempted, failed, mismatches int64
	errs                          []string
	sliceWalls                    []float64 // seconds per batch of work
}

func newTally() *tally { return &tally{rtt: positions{}, exec: positions{}} }

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < maxMismatchLines {
		t.errs = append(t.errs, "operation failed: "+err.Error())
	}
}

func (t *tally) wrong(format string, args ...any) {
	t.mismatches++
	if len(t.errs) < maxMismatchLines {
		t.errs = append(t.errs, "wrong answer: "+fmt.Sprintf(format, args...))
	}
}

// merge folds client tallies into one and into the run's report.
func merge(rep *report, tallies []*tally) *tally {
	all := newTally()
	for _, t := range tallies {
		all.rtt.merge(t.rtt)
		all.exec.merge(t.exec)
		all.attempted += t.attempted
		rep.attempted += t.attempted
		rep.failed += t.failed
		rep.mismatches += t.mismatches
		for _, e := range t.errs {
			fmt.Fprintln(os.Stderr, "perfbench: "+e)
		}
	}
	return all
}

// seek issues one seek for key k at round position pos and checks it: the
// full rows against the reference when full is set, the row count otherwise.
func (t *tally) seek(c *wireClient, ref *reference, k int64, pos, n int, full bool) {
	t.attempted++
	resp, rtt, err := c.query(seekSQL(k))
	if err != nil {
		t.fail(err)
		return
	}
	t.rtt.add("rtt_us", pos, n, us(rtt))
	t.exec.add("exec_us", pos, n, float64(resp.WallUS))
	want := ref.seekRows[k]
	if full {
		if err := compareWireRows(resp.Rows, want); err != nil {
			t.wrong("seek %d: %v", k, err)
		}
	} else if len(resp.Rows) != len(want) {
		t.wrong("seek %d: %d rows, reference %d", k, len(resp.Rows), len(want))
	}
}

// serveSeek: an in-memory engine with the core TPC-H tables behind the
// server; two closed-loop connections (at most one per CPU) send ad-hoc
// clustered-key seeks drawn with the seed from a fixed set of 200 keys, so
// every statement is served from the plan cache over a warm buffer pool.
func serveSeek(cfg config) (*report, error) {
	rep := newReport()
	keys := cfg.ref.keys
	env, setupS, heapMB, err := buildMedian(func() (*served, error) {
		s, err := serve(engine.New(engine.Options{}))
		if err != nil {
			return nil, err
		}
		if err := s.loadCore(); err != nil {
			s.stop()
			return nil, err
		}
		return s, nil
	}, func(s *served) { s.stop() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer env.stop()
	rep.e2e["setup_s"], rep.e2e["setup_heap_mb"] = setupS, heapMB
	rep.e2e["stored_pages"] = float64(env.eng.TotalDataPages())

	clients, err := env.dialClients(min(2, runtime.GOMAXPROCS(0)))
	if err != nil {
		return nil, err
	}
	defer closeClients(clients)
	// Warm the plan cache and the buffer pool with every key once, checking
	// each answer in full.
	warm := newTally()
	for _, k := range keys {
		warm.seek(clients[0], cfg.ref, k, 0, 1, true)
	}
	merge(rep, []*tally{warm})

	cacheBefore := env.eng.PlanCacheStats()
	mem := startMemWindow()
	start := time.Now()
	tallies := make([]*tally, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		tallies[i] = newTally()
		wg.Add(1)
		go func(t *tally, c *wireClient, rng *rand.Rand) {
			defer wg.Done()
			for len(t.sliceWalls) == 0 || time.Since(start) < cfg.window {
				batchStart := time.Now()
				for j := 0; j < seekBatch; j++ {
					t.seek(c, cfg.ref, keys[rng.Intn(len(keys))], 0, 1, false)
				}
				t.sliceWalls = append(t.sliceWalls, time.Since(batchStart).Seconds())
			}
		}(tallies[i], c, rand.New(rand.NewSource(cfg.seed*1000+int64(i))))
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := merge(rep, tallies)
	allocKB, gcPerKop := mem.perOp(all.attempted)
	rtt := all.rtt.pooled("rtt_us")
	// Each connection's rate over its median batch, summed over connections.
	opsPerSec := 0.0
	for _, t := range tallies {
		opsPerSec += seekBatch / median(t.sliceWalls)
	}
	rep.e2e["ops_per_s"] = opsPerSec
	rep.e2e["round_ms"] = median(rtt) / 1000
	fmt.Printf("# window: %d seeks on %d connections in %.3f s; p50 %.2f us, p99 %.2f us (%d samples)\n",
		all.attempted, len(clients), elapsed.Seconds(), median(rtt), percentile(rtt, 99), len(rtt))
	if !cfg.trace {
		return rep, nil
	}

	l := rep.layers
	l["tpch.load_s"] = env.loadS
	cache := env.eng.PlanCacheStats()
	l["engine.plan_cache_hit_ratio"] = hitRatio(cacheBefore, cache)
	l["runtime.alloc_kb_per_op"], l["runtime.gc_cycles_per_kop"] = allocKB, gcPerKop
	var stmts []string
	for _, k := range keys {
		stmts = append(stmts, seekSQL(k))
	}
	probe, err := probeReads(env.eng, stmts, 1)
	if err != nil {
		return nil, err
	}
	probe.set(l)
	reads := serverSplit(env.srv.Workload(0), "SELECT")
	execUS := median(all.exec.pooled("exec_us"))
	setServeLayers(l, reads, median(rtt), execUS)
	whole := median(rtt) / 1000
	parts := (execUS + reads.queueUS + probe.frontEndUS(l["engine.plan_cache_hit_ratio"])) / 1000
	setServeTrace(l, whole, parts)
	return rep, nil
}

func hitRatio(before, after engine.PlanCacheStats) float64 {
	hits := after.Hits - before.Hits
	total := hits + after.StmtHits - before.StmtHits + after.Misses - before.Misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// readProbe holds the in-process, per-layer timings of a set of read
// statements, taken after the window through the public layer functions.
type readProbe struct {
	lay           positions
	readsPerRound int
}

// probeReads times parse, normalize and plan on each statement and runs it
// once with EXPLAIN ANALYZE instrumentation over the warm buffer pool.
func probeReads(e *engine.Engine, stmts []string, readsPerRound int) (*readProbe, error) {
	p := &readProbe{lay: positions{}, readsPerRound: readsPerRound}
	for _, text := range stmts {
		parse, norm, planT, err := timeFrontEnd(e, text)
		if err != nil {
			return nil, err
		}
		res, err := e.QueryWith(engine.QueryOptions{Trace: true}, text)
		if err != nil {
			return nil, err
		}
		p.lay.add("parse_us", 0, 1, us(parse))
		p.lay.add("normalize_us", 0, 1, us(norm))
		p.lay.add("plan_us", 0, 1, us(planT))
		p.lay.add("seq_reads", 0, 1, float64(res.Stats.IO.SeqReads))
		p.lay.add("rand_reads", 0, 1, float64(res.Stats.IO.RandReads))
		addSpans(p.lay, 0, 1, res.Trace)
	}
	return p, nil
}

// set fills the front-end, executor and storage layers, scaling per-read
// medians to a round.
func (p *readProbe) set(l map[string]float64) {
	l["sql.parse_us"] = p.lay.sumOfMedians("parse_us")
	l["sql.normalize_us"] = p.lay.sumOfMedians("normalize_us")
	l["plan.plan_us"] = p.lay.sumOfMedians("plan_us")
	setSpanLayers(l, p.lay)
	for _, c := range spanClasses {
		l["exec."+c+"_ms"] *= float64(p.readsPerRound)
	}
	l["storage.seq_reads"] = p.lay.sumOfMedians("seq_reads") * float64(p.readsPerRound)
	l["storage.rand_reads"] = p.lay.sumOfMedians("rand_reads") * float64(p.readsPerRound)
}

// frontEndUS is the front-end work a served read does: normalization for the
// plan-cache key always, parse and plan on a cache miss.
func (p *readProbe) frontEndUS(hitRatio float64) float64 {
	return p.lay.sumOfMedians("normalize_us") +
		(1-hitRatio)*(p.lay.sumOfMedians("parse_us")+p.lay.sumOfMedians("plan_us"))
}

// sessionSplit is the server's own account of one statement kind, from its
// workload records: median session wall time and admission queue time.
type sessionSplit struct{ wallUS, queueUS float64 }

func serverSplit(recs []server.WorkloadRecord, prefix string) sessionSplit {
	var walls, queues []float64
	for _, r := range recs {
		if strings.HasPrefix(r.SQL, prefix) {
			walls = append(walls, float64(r.WallUS))
			queues = append(queues, float64(r.QueueUS))
		}
	}
	return sessionSplit{wallUS: median(walls), queueUS: median(queues)}
}

// setServeLayers fills the server and wire layers of reads as differences of
// medians: session = session wall − queue − execution; wire = client round
// trip − session wall.
func setServeLayers(l map[string]float64, reads sessionSplit, rttUS, execUS float64) {
	l["engine.exec_us"] = execUS
	l["server.queue_us"] = reads.queueUS
	l["server.session_us"] = reads.wallUS - reads.queueUS - execUS
	l["wire.roundtrip_overhead_us"] = rttUS - reads.wallUS
}

// setServeTrace reports the round next to the parts timed on their own. The
// serving path carries no instrumentation, so the traced window is the
// untraced one and the tracing overhead is 0 by construction.
func setServeTrace(l map[string]float64, wholeMS, partsMS float64) {
	l["trace.whole_ms"], l["trace.parts_ms"] = wholeMS, partsMS
	if wholeMS > 0 {
		l["trace.parts_share"] = partsMS / wholeMS
	}
	l["trace.overhead_pct"] = 0
}

// The serve-rw workload: a durable engine (WAL and data file) on a
// RAM-backed filesystem (memFS), one connection running cycles of a
// single-row INSERT with a fresh key, a read of that key, and two seeks on
// seeded existing keys. The window is whole intervals of checkpointEvery
// cycles; between intervals the clock stops while the engine checkpoints, so
// the log stays bounded. Checkpoints are not measured.

const (
	rwDataDir       = "db"
	rwFirstKey      = 1_000_000 // above every generated l_orderkey
	checkpointEvery = 500
	rwPositions     = 4 // insert, read-own-write, seek, seek
)

var shipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}

// newLineitem draws the inserted row for key k: literals as the INSERT
// statement spells them and the values the engine must return.
func newLineitem(rng *rand.Rand, k int64) (string, []value.Value) {
	cents := func(c int) (string, value.Value) {
		lit := fmt.Sprintf("%d.%02d", c/100, c%100)
		f, _ := strconv.ParseFloat(lit, 64)
		return lit, value.NewFloat(f)
	}
	ship := value.MustParseDate("1994-01-01").I + int64(rng.Intn(1500))
	commit := ship + int64(rng.Intn(60)) - 30
	receipt := ship + 1 + int64(rng.Intn(30))
	qty, qtyV := cents(100 * (1 + rng.Intn(50)))
	price, priceV := cents(90000 + rng.Intn(10000000))
	disc, discV := cents(rng.Intn(11))
	tax, taxV := cents(rng.Intn(9))
	mode := shipModes[rng.Intn(len(shipModes))]
	part, supp := int64(1+rng.Intn(2000)), int64(1+rng.Intn(100))
	row := []value.Value{
		value.NewInt(k), value.NewInt(part), value.NewInt(supp), value.NewInt(1),
		qtyV, priceV, discV, taxV, value.NewString("N"), value.NewString("O"),
		value.NewDate(ship), value.NewDate(commit), value.NewDate(receipt), value.NewString(mode),
	}
	date := func(i int) string { return row[i].String() }
	text := fmt.Sprintf("INSERT INTO lineitem VALUES (%d, %d, %d, 1, %s, %s, %s, %s, 'N', 'O', DATE '%s', DATE '%s', DATE '%s', '%s')",
		k, part, supp, qty, price, disc, tax, date(10), date(11), date(12), mode)
	return text, row
}

func serveRW(cfg config) (*report, error) {
	rep := newReport()
	keys := cfg.ref.keys
	baseRows := cfg.ref.lineitemRows
	env, setupS, heapMB, err := buildMedian(func() (*served, error) {
		fsys := newMemFS()
		e, err := engine.Open(engine.Options{FS: fsys, DataDir: rwDataDir})
		if err != nil {
			return nil, err
		}
		s, err := serve(e)
		if err != nil {
			e.Close()
			return nil, err
		}
		s.fs = fsys
		if err := s.loadCore(); err != nil {
			s.stop()
			return nil, err
		}
		if err := e.Checkpoint(); err != nil {
			s.stop()
			return nil, err
		}
		return s, nil
	}, func(s *served) { s.stop() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer env.stop()
	rep.e2e["setup_s"], rep.e2e["setup_heap_mb"] = setupS, heapMB
	rep.e2e["stored_pages"] = float64(env.eng.TotalDataPages())
	clients, err := env.dialClients(1)
	if err != nil {
		return nil, err
	}
	defer closeClients(clients)
	c := clients[0]

	rng := rand.New(rand.NewSource(cfg.seed))
	t := newTally()
	var acked [][]value.Value
	seen := make(map[int64]bool)
	var elapsed time.Duration
	var peakWAL int64
	// Checkpoints move none of these counters: they sync nothing new and
	// page writes are counted when a statement dirties a page.
	walBefore, ioBefore, cacheBefore := env.eng.WALStats(), env.eng.Pager().Stats(), env.eng.PlanCacheStats()
	mem := startMemWindow()
	for cycle := int64(0); t.attempted == 0 || elapsed < cfg.window; {
		start := time.Now()
		for i := 0; i < checkpointEvery; i++ {
			k := rwFirstKey + cycle
			cycle++
			text, row := newLineitem(rng, k)
			t.attempted++
			resp, rtt, err := c.query(text)
			if err != nil {
				t.fail(err)
				// Keep whole cycles: the reads below still run and check
				// that the failed insert left no row behind.
			} else {
				acked = append(acked, row)
				t.rtt.add("rtt_us", 0, rwPositions, us(rtt))
				t.exec.add("exec_us", 0, rwPositions, float64(resp.WallUS))
			}
			var want [][]value.Value
			if err == nil {
				want = [][]value.Value{row}
			}
			t.attempted++
			resp, rtt, err = c.query(seekSQL(k))
			if err != nil {
				t.fail(err)
			} else {
				t.rtt.add("rtt_us", 1, rwPositions, us(rtt))
				t.exec.add("exec_us", 1, rwPositions, float64(resp.WallUS))
				if err := compareWireRows(resp.Rows, want); err != nil {
					t.wrong("read of inserted key %d: %v", k, err)
				}
			}
			for pos := 2; pos < rwPositions; pos++ {
				k := keys[rng.Intn(len(keys))]
				t.seek(c, cfg.ref, k, pos, rwPositions, !seen[k])
				seen[k] = true
			}
		}
		interval := time.Since(start)
		elapsed += interval
		t.sliceWalls = append(t.sliceWalls, interval.Seconds())
		peakWAL = max(peakWAL, env.eng.WALSize())
		if elapsed < cfg.window {
			if err := env.eng.Checkpoint(); err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	allocKB, gcPerKop := mem.perOp(t.attempted)
	walStats, io, cache := env.eng.WALStats(), env.eng.Pager().Stats(), env.eng.PlanCacheStats()
	commits := float64(max(walStats.Commits-walBefore.Commits, 1))
	records := env.srv.Workload(0)
	all := merge(rep, []*tally{t})
	if err := checkRecovered(env.fs, baseRows, acked, rep); err != nil {
		return nil, err
	}

	roundMS := all.rtt.sumOfMedians("rtt_us") / 1000
	// The rate over the median checkpoint interval.
	rep.e2e["ops_per_s"] = checkpointEvery * rwPositions / median(t.sliceWalls)
	rep.e2e["round_ms"] = roundMS
	commitRTT := all.rtt["rtt_us"][0]
	var readRTT []float64
	for _, xs := range all.rtt["rtt_us"][1:] {
		readRTT = append(readRTT, xs...)
	}
	fmt.Printf("# window: %d cycles (%d statements) in %.3f s; commit p50 %.2f us, p99 %.2f us (%d samples); read p50 %.2f us, p99 %.2f us (%d samples); WAL %.1f B/commit\n",
		len(acked), all.attempted, elapsed.Seconds(), median(commitRTT), percentile(commitRTT, 99), len(commitRTT),
		median(readRTT), percentile(readRTT, 99), len(readRTT), float64(walStats.BytesWritten-walBefore.BytesWritten)/commits)
	if !cfg.trace {
		return rep, nil
	}

	l := rep.layers
	l["tpch.load_s"] = env.loadS
	l["engine.plan_cache_hit_ratio"] = hitRatio(cacheBefore, cache)
	l["engine.plan_cache_invalidations_per_commit"] = float64(cache.Invalidations-cacheBefore.Invalidations) / commits
	l["wal.fsyncs_per_commit"] = float64(walStats.Syncs-walBefore.Syncs) / commits
	l["wal.bytes_per_commit"] = float64(walStats.BytesWritten-walBefore.BytesWritten) / commits
	l["storage.page_writes_per_commit"] = float64(io.PageWrites-ioBefore.PageWrites) / commits
	l["wal.log_mb_end"] = float64(peakWAL) / 1e6
	l["runtime.alloc_kb_per_op"], l["runtime.gc_cycles_per_kop"] = allocKB, gcPerKop
	var stmts []string
	for _, k := range keys {
		stmts = append(stmts, seekSQL(k))
	}
	probe, err := probeReads(env.eng, stmts, rwPositions-1)
	if err != nil {
		return nil, err
	}
	probe.set(l)
	reads := serverSplit(records, "SELECT")
	inserts := serverSplit(records, "INSERT")
	var readExec []float64
	for _, xs := range all.exec["exec_us"][1:] {
		readExec = append(readExec, xs...)
	}
	insertExec := median(all.exec["exec_us"][0])
	setServeLayers(l, reads, median(readRTT), median(readExec))
	l["wal.commit_us"] = inserts.wallUS - insertExec
	parts := (insertExec + float64(rwPositions-1)*(median(readExec)+reads.queueUS+
		probe.frontEndUS(l["engine.plan_cache_hit_ratio"]))) / 1000
	setServeTrace(l, roundMS, parts)
	return rep, nil
}

// checkRecovered copies the durable engine's data directory while the
// engine stays open, recovers the copy with engine.Open, and checks that it
// holds every acknowledged insert and nothing else beyond the base rows.
func checkRecovered(fsys *memFS, baseRows int, acked [][]value.Value, rep *report) error {
	e, err := engine.Open(engine.Options{FS: fsys.copyAll(), DataDir: rwDataDir})
	if err != nil {
		return fmt.Errorf("recovering a copy of the data directory: %w", err)
	}
	defer e.Close()
	rep.attempted++
	res, err := e.Query("SELECT COUNT(*) FROM lineitem")
	if err != nil {
		rep.failure(fmt.Errorf("recovered copy: %w", err))
	} else if n := res.Rows[0][0].I; n != int64(baseRows+len(acked)) {
		rep.mismatch("recovered copy holds %d lineitem rows, want %d base + %d acknowledged", n, baseRows, len(acked))
	}
	rep.attempted++
	res, err = e.Query(fmt.Sprintf("SELECT * FROM lineitem WHERE l_orderkey >= %d", rwFirstKey))
	if err != nil {
		rep.failure(fmt.Errorf("recovered copy: %w", err))
	} else if err := compareGrouped(res.Rows, acked); err != nil {
		rep.mismatch("recovered copy: %v", err)
	}
	return nil
}
