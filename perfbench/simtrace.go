package main

import (
	"fmt"
	"math"
	"time"

	"quasar/internal/cf"
	"quasar/internal/classify"
	"quasar/internal/cluster"
	"quasar/internal/core"
	"quasar/internal/obs"
	"quasar/internal/obs/prof"
	"quasar/internal/sim"
)

// retrainReps is how often the traced run times each training call on the
// final snapshot; it reports the median.
const retrainReps = 3

// runSimTraced makes the traced run: one untraced execution for reference,
// then one with the tracer, the self-profiler and the manager wrapper's
// accounting on. It checks that instrumentation did not change the outcome
// and reports every layer's self time, which add up to the traced run_s.
func runSimTraced(spec simSpec) (*report, error) {
	rep := &report{}
	w, _, err := timedSetup(spec, nil)
	if err != nil {
		return nil, err
	}
	plain := execute(spec, w)
	checkSim(rep, plain)

	cs := newCountSink()
	hw := newHashWriter()
	stream := obs.NewStreamSinkWriter(hw)
	tw, _, err := timedSetup(spec, []obs.Sink{stream, cs})
	if err != nil {
		return nil, err
	}
	p := prof.New()
	tw.s.Q.SetProfiler(p)
	stream.Prof = p
	tw.mgr.prof = p
	traced := execute(spec, tw)
	// Read the profiler before closing the trace: the final flush is not
	// part of the run.
	var profS [len(subsystems)]float64
	for i, s := range subsystems {
		profS[i] = p.Seconds(s)
	}
	sec := func(s prof.Subsystem) float64 { return profS[s] }
	schedCalls := profCalls(p, prof.SubSched)
	if err := tw.s.Tracer.Close(); err != nil {
		return nil, fmt.Errorf("closing trace: %w", err)
	}
	checkSim(rep, traced)
	rep.check(traced.out == plain.out, "traced run reproduces the untraced outcome (%s vs %s)", traced.out.digest, plain.out.digest)
	fmt.Printf("untraced run %.3fs, traced run %.3fs, trace sha256 %s\n", plain.runS, traced.runS, hw.sum()[:16])

	m := tw.mgr
	vals := map[string]float64{
		"traced.run_s":                   traced.runS,
		"sim.events":                     float64(tw.s.RT.Eng.Fired()),
		"sim.step_self_s":                sec(prof.SubSimStep),
		"core.runtime.ticks":             float64(m.calls[cbTick]),
		"core.runtime.tick_self_s":       sec(prof.SubRuntime) - m.selfInTickS,
		"core.quasar.self_s":             m.selfS,
		"core.quasar.on_submit_s":        m.secs[cbSubmit],
		"core.quasar.on_tick_s":          m.secs[cbTick],
		"core.quasar.on_complete_s":      m.secs[cbComplete],
		"core.quasar.on_submit.calls":    float64(m.calls[cbSubmit]),
		"core.quasar.on_tick.calls":      float64(m.calls[cbTick]),
		"core.quasar.on_complete.calls":  float64(m.calls[cbComplete]),
		"core.quasar.on_complete_p99_ms": 1e3 * nanToZero(percentile(m.lat[cbComplete], 99)),
		"classify.self_s":                sec(prof.SubClassify),
		"classify.rows":                  float64(tw.s.Q.Engine().Rows()),
		"sched.self_s":                   sec(prof.SubSched),
		"obs.trace.bytes":                float64(hw.n),
		"obs.trace_self_s":               sec(prof.SubTrace),
		"obs.trace_overhead_frac":        traced.runS/plain.runS - 1,
	}
	vals["sched.calls"] = float64(schedCalls)
	if m.queueN > 0 {
		vals["core.quasar.queue_len_mean"] = m.queueSum / m.queueN
	}
	if m.drainEntry > 0 {
		vals["core.quasar.drain_useful_frac"] = float64(m.drainOut) / float64(m.drainEntry)
	}
	cs.decisionCounts(vals)

	// Self-time accounting: every profiled subsystem, with the manager's own
	// time moved out of runtime_tick, plus what nothing attributed.
	attributed := m.selfS - m.selfInTickS
	for _, v := range profS {
		attributed += v
	}
	vals["other_s"] = traced.runS - attributed
	rep.check(vals["other_s"] > -1e-3*traced.runS,
		"layer self times (%.3fs) do not exceed the traced run (%.3fs)", attributed, traced.runS)

	if err := trainOnSnapshot(tw.s.Q, vals); err != nil {
		return nil, err
	}
	addLayers(rep, vals)
	return rep, nil
}

// profCalls is the profiler's section count for one subsystem.
func profCalls(p *prof.Profiler, s prof.Subsystem) int64 {
	for _, row := range p.Snapshot().Subsystems {
		if row.Name == s.String() {
			return row.Calls
		}
	}
	return 0
}

// trainOnSnapshot times classification training on the run's final
// matrices, on copies, so the run itself is not perturbed: RetrainAll on an
// engine restored from the final snapshot, and cf.Train on each axis matrix.
func trainOnSnapshot(q *core.Quasar, vals map[string]float64) error {
	src := q.Engine()
	snap := src.Snapshot()
	opts := core.DefaultQuasarOptions().Classify
	opts.MaxNodes, opts.Entries = 32, 3 // as experiments.NewScenario configures Quasar
	eng := classify.NewEngine(src.Platforms, opts, sim.NewRNG(scenarioSeed))
	if err := eng.LoadSnapshot(snap); err != nil {
		return fmt.Errorf("restoring the classification snapshot: %w", err)
	}
	vals["classify.retrain_ms"] = medianMS(func() { eng.RetrainAll() })

	cols := []int{len(src.SUCols), len(src.SOCounts), len(src.Platforms), int(cluster.NumResources), int(cluster.NumResources)}
	cfOpts := opts.CF
	if cfOpts.K == 0 {
		cfOpts = cf.DefaultOptions()
	}
	for i, rows := range snap.Axes {
		mat := cf.NewSparseFrom(cols[i], rows)
		name := classify.Axis(i).String()
		ms := medianMS(func() { cf.Train(mat, cfOpts) })
		vals["cf.train."+name+"_ms"] = ms
		fmt.Printf("cf.train.%s: %d rows x %d cols, %.3f ms\n", name, mat.Rows, mat.Cols, ms)
	}
	return nil
}

// medianMS runs fn retrainReps times and returns the median wall time in ms.
func medianMS(fn func()) float64 {
	var ds []float64
	for i := 0; i < retrainReps; i++ {
		t0 := time.Now()
		fn()
		ds = append(ds, 1e3*since(t0))
	}
	return median(ds)
}

func nanToZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
