package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adc"
	"adc/internal/datagen"
	"adc/internal/dataset"
	"adc/internal/predicate"
	"adc/internal/server"
	"adc/internal/storefs"
	"adc/internal/violation"
)

// The serve-mixed workload: an in-process dcserved with persistence on,
// two generated airport datasets, and open-loop traffic from two
// clients with one connection each.
const (
	serveDataset  = "airport"
	serveRows     = 2000
	serveSets     = 2
	serveClients  = 2
	serveRate     = 8.0 // requests per second, all clients together
	serveEps      = 0.05
	serveMaxPreds = 2
	// serveWorkers is the worker count each validate and mine request
	// asks for: one, so that on two cores a read runs beside a mine
	// instead of splitting both cores with it.
	serveWorkers = 1
	servePoll    = 2 * time.Millisecond // job status poll interval
	serveSetups  = 3
	serveTimeout = 60 * time.Second
	// serveSnapshotEvery compacts a dataset's WAL into a snapshot every
	// 16 appended batches instead of the server's default 64, so that a
	// 20 s window at this rate (~32 batches per dataset) sees about four
	// compactions, not none.
	serveSnapshotEvery = 16
)

// Request mix as ops per block of blockLen (60/25/15 percent): validate,
// append, appendmine.
var serveMix = [3]int{12, 5, 3}

const blockLen = 20

const (
	opValidate = iota
	opAppend
	opAppendMine
)

var opNames = [3]string{"validate", "append", "appendmine"}

// serveSet is one registered dataset as the client knows it: the
// generated base relation and every append the server acked.
type serveSet struct {
	id      string
	base    *dataset.Relation
	golden  []string
	specs   []predicate.DCSpec
	initial int
	high    atomic.Int64 // highest row count any response reported

	mu    sync.Mutex
	acked []ackedBatch
}

type ackedBatch struct {
	after int // row count the append response reported
	rows  [][]string
}

// observeRows checks that a response's row count is not below what an
// earlier response showed before this request was sent, then raises
// the high-water mark.
func (s *serveSet) observeRows(before int64, rows int) error {
	if int64(rows) < before {
		return fmt.Errorf("dataset %s: row count went back from %d to %d", s.id, before, rows)
	}
	for {
		h := s.high.Load()
		if int64(rows) <= h || s.high.CompareAndSwap(h, int64(rows)) {
			return nil
		}
	}
}

// serveEnv is one running server with its datasets.
type serveEnv struct {
	dir    string
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	fs     *countingFS
	sets   []*serveSet
}

// countingFS counts the storage tier's syncs, their time and the bytes
// it writes; the traced run passes it as server.Config.FS.
type countingFS struct {
	storefs.FS
	syncs, syncNanos, written atomic.Int64
}

type countingFile struct {
	storefs.File
	fs *countingFS
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (storefs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) CreateTemp(dir, pattern string) (storefs.File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) SyncDir(dir string) error {
	return c.timeSync(func() error { return c.FS.SyncDir(dir) })
}

func (c *countingFS) timeSync(sync func() error) error {
	t := time.Now()
	err := sync()
	c.syncNanos.Add(int64(time.Since(t)))
	c.syncs.Add(1)
	return err
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error { return f.fs.timeSync(f.File.Sync) }

// client is one load-generating connection.
type client struct {
	hc  *http.Client
	env *serveEnv
}

func newClient(env *serveEnv) *client {
	return &client{
		env: env,
		hc: &http.Client{
			Timeout:   serveTimeout,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one JSON request and decodes a 2xx response into out.
func (c *client) call(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.env.base+path, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: http %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

type datasetView struct {
	ID        string   `json:"id"`
	Rows      int      `json:"rows"`
	GoldenDCs []string `json:"golden_dcs"`
}

type verdictView struct {
	DC         string  `json:"dc"`
	OK         bool    `json:"ok"`
	Loss       float64 `json:"loss"`
	Violations int64   `json:"violations"`
}

type validateView struct {
	Rows int           `json:"rows"`
	DCs  []verdictView `json:"dcs"`
}

type jobView struct {
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		NumDCs int `json:"num_dcs"`
	} `json:"result"`
}

type metricsView struct {
	Latency map[string]struct {
		Count  int64   `json:"count"`
		MeanUS float64 `json:"mean_us"`
	} `json:"latency"`
	Cache struct {
		PlanHits    int64 `json:"plan_hits"`
		PlanMisses  int64 `json:"plan_misses"`
		IndexHits   int64 `json:"index_hits"`
		IndexMisses int64 `json:"index_misses"`
	} `json:"cache"`
	EvidenceDelta struct {
		Builds    int64 `json:"builds"`
		Pairs     int64 `json:"pairs"`
		Fallbacks int64 `json:"fallbacks"`
	} `json:"evidence_delta"`
	Storage struct {
		SnapshotsWritten int64 `json:"snapshots_written"`
	} `json:"storage"`
}

// routeSum returns a route's request count and total handler time, so
// that a window's exact mean is a difference of two scrapes.
func (m *metricsView) routeSum(route string) (count int64, totalMS float64) {
	l := m.Latency[route]
	return l.Count, l.MeanUS * float64(l.Count) / 1000
}

const (
	routeValidate = "POST /datasets/{id}/validate"
	routeAppend   = "POST /datasets/{id}/rows"
)

// startServe starts a server on a loopback port with its data
// directory under .bench_build, registers the datasets and warms them:
// one validate and one mine each, so the timed window sees warm indexes
// and a mining cache that appends maintain incrementally.
func startServe(traced bool) (*serveEnv, error) {
	root := filepath.Join(".bench_build", "adcbench")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "serve-")
	if err != nil {
		return nil, err
	}
	env := &serveEnv{dir: dir, served: make(chan error, 1)}
	cfg := server.Config{DataDir: dir, SnapshotEvery: serveSnapshotEvery}
	if traced {
		env.fs = &countingFS{FS: storefs.Std}
		cfg.FS = env.fs
	}
	env.srv, err = server.New(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	env.base = "http://" + ln.Addr().String()
	env.hs = &http.Server{Handler: env.srv.Handler()}
	go func() { env.served <- env.hs.Serve(ln) }()

	c := newClient(env)
	defer c.close()
	for k := 0; k < serveSets; k++ {
		if err := env.register(c, datasetSeed+int64(k)); err != nil {
			env.stop()
			return nil, err
		}
	}
	for _, s := range env.sets {
		var v validateView
		if err := c.call("POST", "/datasets/"+s.id+"/validate", validateRequest(s), &v); err != nil {
			env.stop()
			return nil, err
		}
		if err := c.mine(s); err != nil {
			env.stop()
			return nil, err
		}
	}
	return env, nil
}

// register generates a dataset in the server and the same relation
// locally, the base the client reconstructs the final rows from.
func (env *serveEnv) register(c *client, seed int64) error {
	ds, err := datagen.ByName(serveDataset, serveRows, seed)
	if err != nil {
		return err
	}
	req := map[string]any{"generate": map[string]any{"dataset": serveDataset, "rows": serveRows, "seed": seed}}
	var v datasetView
	if err := c.call("POST", "/datasets", req, &v); err != nil {
		return err
	}
	if v.Rows != ds.Rel.NumRows() {
		return fmt.Errorf("dataset %s: server has %d rows, generator %d", v.ID, v.Rows, ds.Rel.NumRows())
	}
	s := &serveSet{id: v.ID, base: ds.Rel, golden: v.GoldenDCs, initial: v.Rows}
	if s.specs, err = adc.ParseDCSpecs(v.GoldenDCs); err != nil {
		return err
	}
	s.high.Store(int64(v.Rows))
	env.sets = append(env.sets, s)
	return nil
}

// stop shuts the server down, waits for its mine jobs and its serve
// loop, and removes the data directory.
func (env *serveEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()
	if err := env.hs.Shutdown(ctx); err != nil {
		logf("shutdown: %v", err)
	}
	if err := env.srv.Drain(ctx); err != nil {
		logf("drain: %v", err)
	}
	if err := <-env.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("serve: %v", err)
	}
	if err := os.RemoveAll(env.dir); err != nil {
		logf("remove %s: %v", env.dir, err)
	}
}

func validateRequest(s *serveSet) map[string]any {
	return map[string]any{"dcs": s.golden, "epsilon": serveEps, "max_pairs": 0, "workers": serveWorkers}
}

// mine submits a mine job and polls it until it is done.
func (c *client) mine(s *serveSet) error {
	var sub struct {
		Job string `json:"job"`
	}
	req := map[string]any{"approx": "f1", "epsilon": serveEps, "max_predicates": serveMaxPreds, "workers": serveWorkers}
	if err := c.call("POST", "/datasets/"+s.id+"/mine", req, &sub); err != nil {
		return err
	}
	deadline := time.Now().Add(serveTimeout)
	for time.Now().Before(deadline) {
		var j jobView
		if err := c.call("GET", "/jobs/"+sub.Job, nil, &j); err != nil {
			return err
		}
		switch j.State {
		case "done":
			if j.Result == nil || j.Result.NumDCs == 0 {
				return fmt.Errorf("job %s: done without DCs", sub.Job)
			}
			return nil
		case "failed":
			return fmt.Errorf("job %s failed: %s", sub.Job, j.Error)
		}
		time.Sleep(servePoll)
	}
	return fmt.Errorf("job %s still running after %s", sub.Job, serveTimeout)
}

// appendRows appends the rows and records the ack.
func (c *client) appendRows(s *serveSet, rows [][]string) error {
	before := s.high.Load()
	var resp struct {
		Rows     int `json:"rows"`
		Appended int `json:"appended"`
	}
	if err := c.call("POST", "/datasets/"+s.id+"/rows", map[string]any{"rows": rows}, &resp); err != nil {
		return err
	}
	if resp.Appended != len(rows) {
		return fmt.Errorf("dataset %s: appended %d of %d rows", s.id, resp.Appended, len(rows))
	}
	if err := s.observeRows(before+int64(len(rows)), resp.Rows); err != nil {
		return err
	}
	s.mu.Lock()
	s.acked = append(s.acked, ackedBatch{after: resp.Rows, rows: rows})
	s.mu.Unlock()
	return nil
}

func (c *client) validate(s *serveSet) error {
	before := s.high.Load()
	var v validateView
	if err := c.call("POST", "/datasets/"+s.id+"/validate", validateRequest(s), &v); err != nil {
		return err
	}
	if len(v.DCs) != len(s.golden) {
		return fmt.Errorf("dataset %s: %d verdicts for %d DCs", s.id, len(v.DCs), len(s.golden))
	}
	return s.observeRows(before, v.Rows)
}

// newRows generates 1–3 typed airport rows from the op's generator.
func newRows(rng *rand.Rand) [][]string {
	n := 1 + rng.Intn(3)
	rel := datagen.Airport(n, rng.Int63()).Rel
	rows := make([][]string, n)
	for i := range rows {
		row := make([]string, len(rel.Columns))
		for j, col := range rel.Columns {
			row[j] = col.ValueString(i)
		}
		rows[i] = row
	}
	return rows
}

// opSample is one timed request: latencies run from the scheduled send.
type opSample struct {
	op        int
	latency   time.Duration
	late      time.Duration
	csvBytes  int
	succeeded bool
}

// drive runs one client's open-loop schedule over the window: a send
// every serveClients/serveRate seconds, offset per client, with the op
// order and the appended rows drawn from the client's own seeded
// generator and the datasets taken in turn.
func (env *serveEnv) drive(r *run, id int, start time.Time) []opSample {
	c := newClient(env)
	defer c.close()
	rng := rand.New(rand.NewSource(r.seed*1000 + int64(id)))
	interval := serveClients * time.Second / serveRate
	var out []opSample
	var block []int
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k)*interval + time.Duration(id)*interval/serveClients)
		if due.Sub(start) >= r.window {
			return out
		}
		if len(block) == 0 {
			block = opBlock(rng, id)
		}
		op := block[0]
		block = block[1:]
		s := env.sets[(k+id)%len(env.sets)]
		var rows [][]string
		if op != opValidate {
			rows = newRows(rng)
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		var err error
		switch op {
		case opValidate:
			err = c.validate(s)
		case opAppend:
			err = c.appendRows(s, rows)
		case opAppendMine:
			if err = c.appendRows(s, rows); err == nil {
				err = c.mine(s)
			}
		}
		smp := opSample{op: op, latency: time.Since(due), late: sent.Sub(due), succeeded: err == nil}
		if err == nil && rows != nil {
			smp.csvBytes = csvSize(rows)
		}
		r.attempt()
		if err != nil {
			r.fail("client %d %s: %v", id, opNames[op], err)
		}
		out = append(out, smp)
	}
}

// opBlock returns one client's next block of the request mix. The mix
// is exact over every block. Appendmines, the heavy requests, sit at
// fixed evenly spaced slots, shifted per client so that the two clients'
// mines alternate; the seed shuffles validates and appends over the
// other slots. Seeds then change which requests meet a running mine, not
// how often mines overlap.
func opBlock(rng *rand.Rand, id int) []int {
	block := make([]int, blockLen)
	heavy := serveMix[opAppendMine]
	for i := 0; i < heavy; i++ {
		block[(i*blockLen/heavy+3+3*id)%blockLen] = opAppendMine
	}
	var light []int
	for op := opValidate; op < opAppendMine; op++ {
		for i := 0; i < serveMix[op]; i++ {
			light = append(light, op)
		}
	}
	rng.Shuffle(len(light), func(i, j int) { light[i], light[j] = light[j], light[i] })
	for k := range block {
		if block[k] != opAppendMine {
			block[k], light = light[0], light[1:]
		}
	}
	return block
}

func csvSize(rows [][]string) int {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.WriteAll(rows) //nolint:errcheck // a bytes.Buffer write cannot fail
	return buf.Len()
}

func (env *serveEnv) scrape() (*metricsView, error) {
	c := newClient(env)
	defer c.close()
	var m metricsView
	err := c.call("GET", "/metrics", nil, &m)
	return &m, err
}

// sampleJobs polls /healthz until stop closes and returns the most mine
// jobs it saw running at once.
func (env *serveEnv) sampleJobs(stop <-chan struct{}) int {
	c := newClient(env)
	defer c.close()
	most := 0
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return most
		case <-tick.C:
			var h struct {
				JobsActive int `json:"jobs_active"`
			}
			if err := c.call("GET", "/healthz", nil, &h); err == nil && h.JobsActive > most {
				most = h.JobsActive
			}
		}
	}
}

func runServe(r *run) error {
	var env *serveEnv
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		if env != nil {
			env.stop()
		}
		t := time.Now()
		var err error
		if env, err = startServe(r.trace); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer env.stop()
	r.set("setup_s", median(setups))
	logf("serve-mixed: seed %d, set-up %.4fs, datasets %s and %s", r.seed, median(setups), env.sets[0].id, env.sets[1].id)

	before, err := env.scrape()
	if err != nil {
		return err
	}
	var fsBefore [3]int64
	if env.fs != nil {
		fsBefore = [3]int64{env.fs.syncs.Load(), env.fs.syncNanos.Load(), env.fs.written.Load()}
	}
	stopJobs := make(chan struct{})
	jobsMax := make(chan int, 1)
	if r.trace {
		go func() { jobsMax <- env.sampleJobs(stopJobs) }()
	}

	start := time.Now()
	results := make([][]opSample, serveClients)
	var wg sync.WaitGroup
	for id := 0; id < serveClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id] = env.drive(r, id, start)
		}(id)
	}
	wg.Wait()
	close(stopJobs)

	// Scrape before anything else touches the server: the counters of a
	// live session vanish with it.
	after, err := env.scrape()
	if err != nil {
		return err
	}
	var lat [3][]float64
	var late []float64
	var ackedCSV int
	for _, rs := range results {
		for _, s := range rs {
			late = append(late, ms(s.late))
			if !s.succeeded {
				continue
			}
			lat[s.op] = append(lat[s.op], ms(s.latency))
			ackedCSV += s.csvBytes
		}
	}
	logf("window: %d validate, %d append, %d appendmine ok; validate p50 %.2fms, append p50 %.2fms, appendmine p50 %.2fms",
		len(lat[opValidate]), len(lat[opAppend]), len(lat[opAppendMine]),
		median(lat[opValidate]), median(lat[opAppend]), median(lat[opAppendMine]))

	if err := env.verify(r); err != nil {
		return err
	}

	if !r.trace {
		r.set("mine_s", median(lat[opAppendMine])/1000)
		r.set("validate_p50_ms", quantile(lat[opValidate], 0.5))
		return nil
	}
	r.set("trace.mine_s", median(lat[opAppendMine])/1000)
	r.set("trace.validate_p50_ms", quantile(lat[opValidate], 0.5))
	r.set("trace.validate_p90_ms", quantile(lat[opValidate], 0.9))
	r.set("server.append_p50_ms", quantile(lat[opAppend], 0.5))
	r.set("server.append_p90_ms", quantile(lat[opAppend], 0.9))
	r.set("client.late_ms", quantile(late, 0.95))
	r.set("server.jobs_active_max", float64(<-jobsMax))

	n0, t0 := before.routeSum(routeValidate)
	n1, t1 := after.routeSum(routeValidate)
	handler := ratio(t1-t0, float64(n1-n0))
	r.set("server.validate_handler_ms", handler)
	r.set("server.validate_wait_ms", mean(lat[opValidate])-handler)
	n0, t0 = before.routeSum(routeAppend)
	n1, t1 = after.routeSum(routeAppend)
	r.set("server.append_handler_ms", ratio(t1-t0, float64(n1-n0)))

	c := after.Cache
	r.set("violation.plan_hit_rate", ratio(float64(c.PlanHits), float64(c.PlanHits+c.PlanMisses)))
	r.set("pli.index_hit_rate", ratio(float64(c.IndexHits), float64(c.IndexHits+c.IndexMisses)))
	r.set("evidence.delta_builds", float64(after.EvidenceDelta.Builds-before.EvidenceDelta.Builds))
	r.set("evidence.delta_fallbacks", float64(after.EvidenceDelta.Fallbacks-before.EvidenceDelta.Fallbacks))
	r.set("evidence.delta_pairs", float64(after.EvidenceDelta.Pairs-before.EvidenceDelta.Pairs))
	r.set("colstore.snapshots", float64(after.Storage.SnapshotsWritten-before.Storage.SnapshotsWritten))

	syncs := env.fs.syncs.Load() - fsBefore[0]
	written := env.fs.written.Load() - fsBefore[2]
	r.set("storefs.syncs", float64(syncs))
	r.set("storefs.sync_ms", ms(time.Duration(env.fs.syncNanos.Load()-fsBefore[1])))
	r.set("storefs.bytes_written", float64(written))
	r.set("storefs.write_amp", ratio(float64(written), float64(ackedCSV)))
	return nil
}

// verify checks the server's final state against what the clients
// know: every acked append is there, in a consistent order, and the
// final validate answers exactly as the library does on the relation
// the client reconstructs. The traced run also replays the validate
// DCs through a library checker on that relation.
func (env *serveEnv) verify(r *run) error {
	c := newClient(env)
	defer c.close()
	var examined, violations int64
	var cold, warm []float64
	for _, s := range env.sets {
		r.attempt()
		rel, err := s.reconstruct()
		if err != nil {
			r.fail("%v", err)
			continue
		}
		var info datasetView
		if err := c.call("GET", "/datasets/"+s.id, nil, &info); err != nil {
			return err
		}
		if info.Rows != rel.NumRows() {
			r.fail("dataset %s: server has %d rows, initial + acked appends = %d", s.id, info.Rows, rel.NumRows())
			continue
		}
		var got validateView
		if err := c.call("POST", "/datasets/"+s.id+"/validate", validateRequest(s), &got); err != nil {
			return err
		}
		want, err := adc.Validate(rel, s.specs, "f1", serveEps, adc.CheckOptions{MaxPairs: 1})
		if err != nil {
			return err
		}
		if err := sameVerdicts(got, want); err != nil {
			r.fail("dataset %s: final validate differs from the library: %v", s.id, err)
			continue
		}
		logf("dataset %s: %d rows (%d appended), final validate matches the library", s.id, info.Rows, info.Rows-s.initial)
		if !r.trace {
			continue
		}
		// Replay the validate DCs one by one on a fresh library checker:
		// a first check per DC is cold, a repeat is warm.
		checker := violation.NewChecker(rel)
		opts := violation.Options{MaxPairs: 1}
		for _, spec := range s.specs {
			one := []predicate.DCSpec{spec}
			t := time.Now()
			rep, err := checker.Check(one, opts)
			if err != nil {
				return err
			}
			cold = append(cold, ms(time.Since(t)))
			t = time.Now()
			if _, err := checker.Check(one, opts); err != nil {
				return err
			}
			warm = append(warm, ms(time.Since(t)))
			violations += rep.Results[0].Violations
			if p := rep.Results[0].Plan; p != nil {
				examined += p.ActualPairs
			}
		}
	}
	if r.trace {
		r.set("violation.cold_ms", median(cold))
		r.set("violation.warm_ms", median(warm))
		r.set("violation.examined_pairs", float64(examined))
		r.set("violation.violations", float64(violations))
	}
	return nil
}

// reconstruct rebuilds the dataset from the generated base and the
// acked appends in the order the server applied them, checking that the
// acked batches tile the rows after the base without gaps or overlaps.
func (s *serveSet) reconstruct() (*dataset.Relation, error) {
	s.mu.Lock()
	batches := slices.Clone(s.acked)
	s.mu.Unlock()
	slices.SortFunc(batches, func(a, b ackedBatch) int { return a.after - b.after })
	rows := s.initial
	var all [][]string
	for _, b := range batches {
		if b.after != rows+len(b.rows) {
			return nil, fmt.Errorf("dataset %s: append acked at %d rows does not follow %d", s.id, b.after, rows)
		}
		rows = b.after
		all = append(all, b.rows...)
	}
	return s.base.AppendRows(all)
}

func sameVerdicts(got validateView, want []adc.DCValidation) error {
	if len(got.DCs) != len(want) {
		return fmt.Errorf("%d verdicts, library %d", len(got.DCs), len(want))
	}
	for k, w := range want {
		g := got.DCs[k]
		if g.Violations != w.Violations || g.OK != w.OK || math.Abs(g.Loss-w.Loss) > 1e-12 {
			return fmt.Errorf("%s: server ok=%v loss=%v violations=%d, library ok=%v loss=%v violations=%d",
				g.DC, g.OK, g.Loss, g.Violations, w.OK, w.Loss, w.Violations)
		}
	}
	return nil
}
