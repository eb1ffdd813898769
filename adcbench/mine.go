package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"adc"
	"adc/internal/approx"
	"adc/internal/bitset"
	"adc/internal/datagen"
	"adc/internal/dataset"
	"adc/internal/evidence"
	"adc/internal/hitset"
	"adc/internal/pli"
	"adc/internal/predicate"
	"adc/internal/sample"
	"adc/internal/violation"
)

// mineSpec is one mining workload: a generated dataset and the mining
// options every op of the workload uses.
type mineSpec struct {
	name     string
	dataset  string
	rows     int
	noise    float64 // spread-noise cell rate; 0 keeps the data clean
	approx   string
	eps      float64
	maxPreds int
	sample   float64 // sampled fraction; 0 mines the full relation
	alpha    float64 // confidence of the f1′ sample correction
}

var (
	// mineEnum: enumeration is 99.7% of the op, evidence almost none.
	mineEnum = mineSpec{name: "mine-enum", dataset: "adult", rows: 200,
		approx: "f1", eps: 0.01, maxPreds: 3}
	// mineSample: the Section 7 sampling path; evidence is ~90% of the op.
	mineSample = mineSpec{name: "mine-sample", dataset: "airport", rows: 40_000, noise: 0.001,
		approx: "f1", eps: 0.05, maxPreds: 2, sample: 0.25, alpha: 0.05}
	// mineTuple: a tuple-based function (greedy f3), so evidence keeps
	// vios maps and the enumerator keeps tuple-level counts.
	mineTuple = mineSpec{name: "mine-tuple", dataset: "airport", rows: 1500,
		approx: "f3", eps: 0.05, maxPreds: 2}
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// mineOutcome identifies what one mine op produced: a fingerprint of
// the sorted canonical DC set and the exact work counters.
type mineOutcome struct {
	fingerprint string
	dcs         int
	calls       int64
	outputs     int64
	lossEvals   int64
	distinct    int
	sorted      []predicate.DC
}

func (o mineOutcome) key() string {
	return fmt.Sprintf("fp=%s dcs=%d calls=%d outputs=%d loss_evals=%d distinct=%d",
		o.fingerprint, o.dcs, o.calls, o.outputs, o.lossEvals, o.distinct)
}

func outcomeOf(dcs []predicate.DC, calls, outputs, lossEvals int64, distinct int) mineOutcome {
	adc.SortDCs(dcs)
	h := sha256.New()
	for _, dc := range dcs {
		h.Write([]byte(dc.Spec().Canonical()))
		h.Write([]byte{'\n'})
	}
	return mineOutcome{
		fingerprint: hex.EncodeToString(h.Sum(nil))[:16],
		dcs:         len(dcs),
		calls:       calls,
		outputs:     outputs,
		lossEvals:   lossEvals,
		distinct:    distinct,
		sorted:      dcs,
	}
}

// datasetSeed fixes the generated dataset of every workload, as a paper
// dataset is fixed. The workload seed varies only what the paper's
// method randomizes — where noise lands and the sampler's draw — and
// the serve traffic. It does not shuffle rows: the row order alone moves
// mine-enum's enumeration work by ±12% (33,056–41,802 calls over seeds
// 1–10), which would swamp the run-to-run spread.
const datasetSeed = 1

// mineInput generates the workload's CSV bytes from the seed: the
// program sees only these bytes.
func mineInput(spec mineSpec, seed int64) ([]byte, error) {
	ds, err := datagen.ByName(spec.dataset, spec.rows, datasetSeed)
	if err != nil {
		return nil, err
	}
	rel := ds.Rel
	if spec.noise > 0 {
		rel = datagen.AddNoise(rel, datagen.Spread, spec.noise, rand.New(rand.NewSource(seed)))
	}
	var buf bytes.Buffer
	if err := rel.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (spec mineSpec) options(seed int64) adc.Options {
	return adc.Options{
		Approx:         spec.approx,
		Epsilon:        spec.eps,
		SampleFraction: spec.sample,
		Alpha:          spec.alpha,
		Seed:           seed,
		MaxPredicates:  spec.maxPreds,
	}
}

// mineOp is the untraced op: CSV bytes → ReadCSV → Mine → SortDCs.
func mineOp(spec mineSpec, csv []byte, seed int64) (mineOutcome, error) {
	rel, err := dataset.ReadCSV(bytes.NewReader(csv), spec.dataset, true)
	if err != nil {
		return mineOutcome{}, err
	}
	res, err := adc.Mine(rel, spec.options(seed))
	if err != nil {
		return mineOutcome{}, err
	}
	return outcomeOf(res.DCs, res.EnumCalls, int64(len(res.DCs)), res.LossEvals, res.Evidence.Distinct()), nil
}

// layerSample is one traced op's per-layer figures.
type layerSample struct {
	ingest, draw, space, warm, evidence, enum time.Duration
	spaceSize, columns                        int
	pairs                                     int64
	memBytes                                  int64
}

// tracedMineOp runs the same op layer by layer, timing each call into
// a layer from here. It mirrors adc.Mine's steps so that its output and
// counters must equal the untraced op's; the approximation function is
// passed as is, because the enumerator picks its fast paths by the
// function's concrete type.
func tracedMineOp(spec mineSpec, csv []byte, seed int64, ls *layerSample) (mineOutcome, error) {
	t := time.Now()
	rel, err := dataset.ReadCSV(bytes.NewReader(csv), spec.dataset, true)
	if err != nil {
		return mineOutcome{}, err
	}
	ls.ingest = time.Since(t)

	f, err := approx.ForName(spec.approx)
	if err != nil {
		return mineOutcome{}, err
	}
	data := rel
	if spec.sample > 0 && spec.sample < 1 {
		t = time.Now()
		data = rel.Sample(spec.sample, rand.New(rand.NewSource(seed)))
		ls.draw = time.Since(t)
		if _, isF1 := f.(approx.F1); isF1 && spec.alpha > 0 {
			f = approx.F1Adjusted{Z: sample.Z(spec.alpha)}
		}
	}

	t = time.Now()
	space := predicate.Build(data, predicate.DefaultOptions())
	ls.space = time.Since(t)
	ls.spaceSize = space.Size()

	t = time.Now()
	store := pli.NewStore(data.Columns)
	ls.columns = store.Warm(nil, 0)
	ls.warm = time.Since(t)

	t = time.Now()
	ev, err := evidence.AutoBuilder{Indexes: store}.Build(space, f.NeedsVios())
	if err != nil {
		return mineOutcome{}, err
	}
	ls.evidence = time.Since(t)
	ls.pairs = ev.TotalPairs
	ls.memBytes = ev.MemBytes()

	var dcs []predicate.DC
	t = time.Now()
	stats := hitset.EnumerateADC(ev, hitset.Options{
		Func:          f,
		Epsilon:       spec.eps,
		MaxPredicates: spec.maxPreds,
	}, func(hs bitset.Bits) {
		dcs = append(dcs, predicate.FromHittingSet(space, hs))
	})
	ls.enum = time.Since(t)
	return outcomeOf(dcs, stats.Calls, stats.Outputs, stats.LossEvals, ev.Distinct()), nil
}

// runMine runs one mining workload: set-up, then mine ops back to back
// (closed loop, one at a time) until they have taken the window, each
// followed by a slice of the output check, which is not counted in the
// window.
func runMine(r *run, spec mineSpec) error {
	var csv []byte
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		b, err := mineInput(spec, r.seed)
		if err != nil {
			return fmt.Errorf("generate input: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		csv = b
	}
	r.set("setup_s", median(setups))
	logf("%s: seed %d, %d CSV bytes, set-up %.4fs", spec.name, r.seed, len(csv), median(setups))

	// The first op is always an untraced Mine: it is the run's reference
	// output, which every later op (traced or not) must reproduce.
	var ref mineOutcome
	var check *recheck
	var mined time.Duration
	var mineTimes []float64
	var layers []layerSample
	for k := 0; k == 0 || mined < r.window; k++ {
		var out mineOutcome
		var err error
		var ls layerSample
		t := time.Now()
		if r.trace && k > 0 {
			out, err = tracedMineOp(spec, csv, r.seed, &ls)
		} else {
			out, err = mineOp(spec, csv, r.seed)
		}
		d := time.Since(t)
		mined += d
		r.attempt()
		switch {
		case err != nil && k == 0:
			return fmt.Errorf("op 0: %w", err)
		case err != nil:
			r.fail("op %d: %v", k, err)
			continue
		case k == 0:
			ref = out
			checkReference(r, spec, out)
			if check, err = newRecheck(r, spec, csv, out); err != nil {
				return err
			}
		case out.key() != ref.key():
			r.fail("op %d disagrees with op 0:\n  got  %s\n  want %s", k, out.key(), ref.key())
		}
		logf("op %d: %.3fs %s", k, d.Seconds(), out.key())
		check.step()
		if r.trace && k == 0 {
			continue // the untraced reference op
		}
		mineTimes = append(mineTimes, d.Seconds())
		layers = append(layers, ls)
	}
	check.finish()
	if r.trace {
		r.set("trace.mine_s", median(mineTimes))
		reportMineLayers(r, ref, layers)
	} else {
		r.set("mine_s", median(mineTimes))
	}
	return nil
}

func reportMineLayers(r *run, ref mineOutcome, layers []layerSample) {
	pick := func(get func(layerSample) time.Duration) float64 {
		var v []float64
		for _, ls := range layers {
			v = append(v, ms(get(ls)))
		}
		return median(v)
	}
	r.set("dataset.ingest_ms", pick(func(l layerSample) time.Duration { return l.ingest }))
	r.set("sample.draw_ms", pick(func(l layerSample) time.Duration { return l.draw }))
	r.set("predicate.build_ms", pick(func(l layerSample) time.Duration { return l.space }))
	r.set("pli.warm_ms", pick(func(l layerSample) time.Duration { return l.warm }))
	r.set("evidence.build_ms", pick(func(l layerSample) time.Duration { return l.evidence }))
	enum := pick(func(l layerSample) time.Duration { return l.enum })
	r.set("hitset.enum_ms", enum)
	if len(layers) > 0 {
		l := layers[0]
		r.set("predicate.size", float64(l.spaceSize))
		r.set("pli.columns", float64(l.columns))
		r.set("evidence.pairs", float64(l.pairs))
		r.set("evidence.mem_mb", float64(l.memBytes)/(1<<20))
	}
	r.set("evidence.distinct_sets", float64(ref.distinct))
	r.set("hitset.calls", float64(ref.calls))
	r.set("hitset.outputs", float64(ref.outputs))
	r.set("hitset.us_per_call", ratio(enum*1000, float64(ref.calls)))
	r.set("hitset.outputs_per_call", ratio(float64(ref.outputs), float64(ref.calls)))
	r.set("approx.loss_evals", float64(ref.lossEvals))
	r.set("approx.evals_per_call", ratio(float64(ref.lossEvals), float64(ref.calls)))
}

// checkReference compares a seed's output to the values recorded for
// it, when there are any.
func checkReference(r *run, spec mineSpec, out mineOutcome) {
	want, ok := reference(spec, r.seed)
	if !ok {
		logf("no recorded reference for %s seed %d; checking that ops agree", spec.name, r.seed)
		return
	}
	if out.key() != want {
		r.fail("output differs from the recorded reference:\n  got  %s\n  want %s", out.key(), want)
	}
}

// recheck validates every mined DC through the violation checker with
// the workload's function and ε: each must score within ε. Passes over
// the DCs are cut into slices that run between mine ops, so that the
// check latencies — the workload's validate_p50_ms — sample the whole
// run; after the first pass the slices wrap around and keep timing
// without re-verifying. Each pass starts on a fresh checker, so every
// timed check is a DC's first on its checker (cold: the plan is
// compiled); the traced run repeats each at once for the warm figure.
// Sampled workloads check on the sample the miner saw, where f1′
// acceptance implies f1 ≤ ε.
type recheck struct {
	r       *run
	spec    mineSpec
	rel     *dataset.Relation
	specs   []predicate.DCSpec
	checker *violation.Checker
	next    int // checks made; next%len(specs) is the next DC

	cold, warm           []float64 // per-DC latencies, ms
	examined, violations int64
}

// recheckSlices is how many mine ops share the pass over the DCs.
const recheckSlices = 4

func newRecheck(r *run, spec mineSpec, csv []byte, ref mineOutcome) (*recheck, error) {
	rel, err := dataset.ReadCSV(bytes.NewReader(csv), spec.dataset, true)
	if err != nil {
		return nil, err
	}
	if spec.sample > 0 && spec.sample < 1 {
		rel = rel.Sample(spec.sample, rand.New(rand.NewSource(r.seed)))
	}
	return &recheck{r: r, spec: spec, rel: rel, specs: adc.DCSpecs(ref.sorted)}, nil
}

// step checks the next slice of DCs.
func (c *recheck) step() {
	n := (len(c.specs) + recheckSlices - 1) / recheckSlices
	for i := 0; i < n; i++ {
		c.checkOne()
	}
}

// finish completes the first pass and reports the figures.
func (c *recheck) finish() {
	for c.next < len(c.specs) {
		c.checkOne()
	}
	r := c.r
	logf("checked %d DCs in %d timed checks, %.1fms in total", len(c.specs), len(c.cold), sum(c.cold))
	if !r.trace {
		r.set("validate_p50_ms", quantile(c.cold, 0.5))
		return
	}
	r.set("trace.validate_p50_ms", quantile(c.cold, 0.5))
	r.set("trace.validate_p90_ms", quantile(c.cold, 0.9))
	r.set("violation.cold_ms", median(c.cold))
	r.set("violation.warm_ms", median(c.warm))
	r.set("violation.examined_pairs", float64(c.examined))
	r.set("violation.violations", float64(c.violations))
	hits, misses := c.checker.PlanStats()
	r.set("violation.plan_hit_rate", ratio(float64(hits), float64(hits+misses)))
	hits, misses = c.checker.IndexStats()
	r.set("pli.index_hit_rate", ratio(float64(hits), float64(hits+misses)))
}

func (c *recheck) checkOne() {
	k := c.next % len(c.specs)
	first := c.next < len(c.specs)
	c.next++
	if k == 0 {
		c.checker = violation.NewChecker(c.rel)
	}
	s := c.specs[k]
	one := []predicate.DCSpec{s}
	opts := violation.Options{MaxPairs: 1} // counts and losses stay exact
	t := time.Now()
	rep, err := c.checker.Check(one, opts)
	var v []violation.Validation
	if err == nil {
		v, err = rep.Validations(c.spec.approx, c.spec.eps)
	}
	c.cold = append(c.cold, ms(time.Since(t)))
	if err != nil {
		c.r.attempt()
		c.r.fail("check %s: %v", s, err)
		return
	}
	if first {
		c.r.attempt()
		if !v[0].OK {
			c.r.fail("mined DC %s scores loss %v > ε=%v", s, v[0].Loss, c.spec.eps)
		}
		c.violations += rep.Results[0].Violations
		if p := rep.Results[0].Plan; p != nil {
			c.examined += p.ActualPairs
		}
	}
	if c.r.trace {
		t = time.Now()
		if _, err := c.checker.Check(one, opts); err != nil {
			c.r.fail("check %s: %v", s, err)
		}
		c.warm = append(c.warm, ms(time.Since(t)))
	}
}
