package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"quasar/internal/core"
	"quasar/internal/experiments"
	"quasar/internal/loadgen"
	"quasar/internal/obs"
	"quasar/internal/obs/prof"
	"quasar/internal/perfmodel"
	"quasar/internal/workload"
)

// simSpec is one fixed simulation scenario, spelled as quasar-sim's flags so
// the self-test can run quasar-sim with the same ones.
type simSpec struct {
	name    string
	servers int // 0 keeps the 40-server local testbed
	gap     float64
	horizon float64

	hadoop, spark, storm, services, single, bestEffort int

	// setups is how often one run assembles the world; setup_s is their
	// median.
	setups int
}

// scenarioSeed is quasar-sim's default -seed. Each sim workload is one fixed
// scenario, so every run simulates identical work and run_s varies only with
// the host: across world seeds 1-10, scale-1k's run time spans 22-36 s and
// paper-local40's target-% 56-74%, far beyond any usable bound.
const scenarioSeed = 1

// paperLocal40 is quasar-sim's default scenario: the paper's 40-server
// testbed, 71 workloads, a 20000 s horizon.
var paperLocal40 = simSpec{
	name: "paper-local40", gap: 5, horizon: 20000,
	hadoop: 4, spark: 2, storm: 2, services: 3, single: 20, bestEffort: 40,
	setups: 15,
}

// scale1k is the `make trace-diff-scale` scenario: 1000 uniform servers and
// 10000 workloads submitted 0.02 s apart.
var scale1k = simSpec{
	name: "scale-1k", servers: 1000, gap: 0.02, horizon: 260,
	services: 20, single: 480, bestEffort: 9500,
	setups: 5,
}

// quickSpec shrinks a scenario for the self-test.
func quickSpec(s simSpec) simSpec {
	s.setups = 2
	if s.servers > 0 {
		s.servers, s.gap = 100, 0.2
		s.services, s.single, s.bestEffort = s.services/10, s.single/10, s.bestEffort/10
		return s
	}
	s.horizon = 3000
	return s
}

// args renders the spec as quasar-sim flags.
func (s simSpec) args() []string {
	itoa := strconv.Itoa
	return []string{
		"-seed", itoa(scenarioSeed), "-servers", itoa(s.servers), "-gap", ftoa(s.gap), "-horizon", ftoa(s.horizon),
		"-hadoop", itoa(s.hadoop), "-spark", itoa(s.spark), "-storm", itoa(s.storm),
		"-services", itoa(s.services), "-single", itoa(s.single), "-besteffort", itoa(s.bestEffort),
	}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ftoaList formats values to four significant digits, space-separated.
func ftoaList(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}

// simWorld is one assembled scenario with its submitted tasks.
type simWorld struct {
	s     *experiments.Scenario
	tasks []*core.Task
	mgr   *timedManager
}

// buildSim assembles the scenario exactly as quasar-sim does for the same
// flags, with the manager wrapped so the benchmark can time its callbacks.
// Non-empty sinks turn tracing on.
func buildSim(spec simSpec, sinks []obs.Sink) (*simWorld, error) {
	s, err := experiments.NewScenario(experiments.ScenarioConfig{
		Cluster: experiments.Local40, Servers: spec.servers, Manager: experiments.KindQuasar,
		Seed: scenarioSeed, MaxNodes: 4, SeedLib: 3, Misestimate: true,
		Trace: len(sinks) > 0, TraceSinks: sinks,
	})
	if err != nil {
		return nil, err
	}
	w := &simWorld{s: s, mgr: &timedManager{inner: s.Mgr, q: s.Q}}
	// Reinstalling restarts the runtime's tick loops at the same times; the
	// self-test pins that the outcome still equals quasar-sim's.
	s.RT.SetManager(w.mgr)

	at := 0.0
	submit := func(ws workload.Spec) {
		inst := s.U.New(ws)
		var load loadgen.Pattern
		if inst.Type.Class() == perfmodel.LatencyCritical {
			load = loadgen.Fluctuating{Min: 0.4 * inst.Target.QPS, Max: 0.9 * inst.Target.QPS, Period: 6000}
		}
		w.tasks = append(w.tasks, s.RT.Submit(inst, at, load))
		at += spec.gap
	}
	for i := 0; i < spec.hadoop; i++ {
		submit(workload.Spec{Type: workload.Hadoop, Family: i % 3, MaxNodes: 3, TargetSlack: 1.2,
			Dataset: workload.Dataset{Name: "sim", SizeGB: 20, WorkMult: 1.5, MemMult: 1}})
	}
	for i := 0; i < spec.spark; i++ {
		submit(workload.Spec{Type: workload.Spark, Family: i % 3, MaxNodes: 3, TargetSlack: 1.2,
			Dataset: workload.Dataset{Name: "sim", SizeGB: 20, WorkMult: 4, MemMult: 1}})
	}
	for i := 0; i < spec.storm; i++ {
		submit(workload.Spec{Type: workload.Storm, Family: i % 3, MaxNodes: 3, TargetSlack: 1.2,
			Dataset: workload.Dataset{Name: "sim", SizeGB: 20, WorkMult: 6, MemMult: 1}})
	}
	svcTypes := []workload.Type{workload.Webserver, workload.Memcached, workload.Cassandra}
	for i := 0; i < spec.services; i++ {
		submit(workload.Spec{Type: svcTypes[i%3], Family: -1, MaxNodes: 3})
	}
	for i := 0; i < spec.single; i++ {
		submit(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 1.3})
	}
	for i := 0; i < spec.bestEffort; i++ {
		submit(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
	}
	return w, nil
}

// simRun is one timed execution of a scenario.
type simRun struct {
	w    *simWorld
	runS float64
	cpuS float64
	out  simOutcome
}

// timedSetup assembles the world once, timed.
func timedSetup(spec simSpec, sinks []obs.Sink) (*simWorld, float64, error) {
	runtime.GC()
	t0 := time.Now()
	w, err := buildSim(spec, sinks)
	return w, since(t0), err
}

// execute runs an assembled world to the horizon, timed.
func execute(spec simSpec, w *simWorld) simRun {
	runtime.GC()
	c0 := cpuSeconds()
	steal := startSteal()
	t0 := time.Now()
	w.s.RT.Run(spec.horizon)
	r := simRun{w: w, runS: since(t0), cpuS: cpuSeconds() - c0}
	steal.report("the run")
	w.s.RT.Stop()
	r.out = outcomeOf(w)
	return r
}

// simOutcome is what the simulation produced, as quasar-sim reports it.
type simOutcome struct {
	statuses [core.StatusRejected + 1]int
	invalid  int // tasks whose final status is outside the lifecycle enum
	qosPct   float64
	utilPct  float64
	digest   string
}

func (o simOutcome) String() string {
	s := ""
	for st, n := range o.statuses {
		if n > 0 {
			s += fmt.Sprintf("%s=%d ", core.Status(st), n)
		}
	}
	return fmt.Sprintf("statuses: %starget=%.1f%% cpu_util=%.1f%% digest=%s", s, o.qosPct, o.utilPct, o.digest)
}

// outcomeOf computes quasar-sim's summary (statuses, mean % of target
// achieved by non-best-effort workloads, mean CPU utilization) plus a digest
// over every task's final state.
func outcomeOf(w *simWorld) simOutcome {
	var o simOutcome
	h := sha256.New()
	sum, n := 0.0, 0
	for _, t := range w.tasks {
		if t.Status < core.StatusQueued || t.Status > core.StatusRejected {
			o.invalid++
		} else {
			o.statuses[t.Status]++
		}
		_, _ = fmt.Fprintf(h, "%s %d %s %s %s %s %d\n", t.W.ID, t.Status,
			ftoa(t.StartAt), ftoa(t.DoneAt), ftoa(t.Progress), ftoa(t.LastAchievedQPS), t.NumNodes())
		if t.W.BestEffort {
			continue
		}
		v := experiments.PerfNormalizedToTarget(w.s.RT, t)
		if math.IsNaN(v) {
			continue
		}
		sum += math.Min(v, 1)
		n++
	}
	if n > 0 {
		o.qosPct = 100 * sum / float64(n)
	}
	o.utilPct = 100 * w.s.RT.CPUHeat.MeanOverall()
	_, _ = fmt.Fprintf(h, "%s %s\n", ftoa(o.qosPct), ftoa(o.utilPct)) // hashing cannot fail
	o.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return o
}

// checkSim runs the output checks every sim run makes.
func checkSim(rep *report, r simRun) {
	rep.check(r.out.invalid == 0, "every submitted task has a valid final status (%d invalid)", r.out.invalid)
	bad := 0
	for _, s := range r.w.s.RT.Cl.Servers {
		if s.FreeCores() < 0 || s.FreeMemGB() < 0 {
			bad++
		}
	}
	rep.check(bad == 0, "no server ends with negative free cores or memory (%d do)", bad)
	rej := r.out.statuses[core.StatusRejected]
	rep.attempted += len(r.w.tasks)
	rep.failed += rej
	fmt.Printf("outcome %s (rejected %d of %d submitted)\n", r.out, rej, len(r.w.tasks))
}

// runSim is the runner for the sim workloads.
func runSim(o options, spec simSpec) (*report, error) {
	if o.quick {
		spec = quickSpec(spec)
	}
	fmt.Printf("scenario: quasar-sim %v\n", spec.args())
	if o.trace {
		return runSimTraced(spec)
	}
	rep := &report{}
	var setups, runs, cpus, lat []float64
	var first simOutcome
	var events uint64
	start := time.Now()
	for i := 0; ; i++ {
		// Extra set-ups first, so setup_s is a median even when the budget
		// fits only one run.
		for len(setups) < spec.setups-1 {
			_, d, err := timedSetup(spec, nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d)
		}
		w, d, err := timedSetup(spec, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		r := execute(spec, w)
		runs = append(runs, r.runS)
		cpus = append(cpus, r.cpuS)
		lat = append(lat, w.mgr.latencies()...)
		checkSim(rep, r)
		if i == 0 {
			first, events = r.out, w.s.RT.Eng.Fired()
		} else {
			rep.check(r.out == first, "repeat %d reproduces the first run's outcome", i)
		}
		fmt.Printf("iteration %d: setup %.3fs run %.3fs cpu %.3fs\n", i, d, r.runS, r.cpuS)
		if el := since(start); el+r.runS > o.seconds {
			break
		}
	}
	rep.add("setup_s", median(setups), "s")
	rep.add("run_s", median(runs), "s")
	rep.add("cpu_s", median(cpus), "s")
	rep.add("peak_rss_mb", peakRSSMB(), "MB")
	rep.add("latency_p50_ms", 1e3*percentile(lat, 50), "ms")
	rep.add("throughput_per_s", float64(events)/median(runs), "1/s")
	rep.add("qos_target_pct", first.qosPct, "%")
	rep.add("cpu_util_pct", first.utilPct, "%")
	fmt.Printf("manager decisions timed: %d, decision_p99_ms %.4f ms\n", len(lat), 1e3*percentile(lat, 99))
	return rep, nil
}

// callback indexes the core.Manager callbacks the wrapper times.
type callback int

const (
	cbSubmit callback = iota
	cbTick
	cbComplete
	cbEvicted
	numCallbacks
)

// timedManager wraps the Quasar manager and times every callback the runtime
// makes into it. A callback the manager triggers from inside another (an
// eviction during placement) is counted but its time stays with the outer
// one. With prof set (the traced run), the profiler's attributed time inside
// each callback is subtracted to give the manager's own self time.
type timedManager struct {
	inner core.Manager
	q     *core.Quasar
	prof  *prof.Profiler

	depth int
	calls [numCallbacks]int
	secs  [numCallbacks]float64
	lat   [numCallbacks][]float64 // seconds per outermost call

	selfS, selfInTickS float64 // manager time not attributed by the profiler

	queueSum, queueN     float64 // queue length at each tick
	drainEntry, drainOut int     // queue length at drain entry, tasks drained
}

func (m *timedManager) Name() string { return m.inner.Name() }

func (m *timedManager) OnSubmit(t *core.Task) { m.call(cbSubmit, func() { m.inner.OnSubmit(t) }) }

func (m *timedManager) OnTick(now float64) { m.call(cbTick, func() { m.inner.OnTick(now) }) }

func (m *timedManager) OnComplete(t *core.Task) { m.call(cbComplete, func() { m.inner.OnComplete(t) }) }

func (m *timedManager) OnEvicted(t *core.Task) { m.call(cbEvicted, func() { m.inner.OnEvicted(t) }) }

func (m *timedManager) call(cb callback, fn func()) {
	m.calls[cb]++
	if m.depth > 0 {
		fn()
		return
	}
	m.depth++
	q0 := m.q.QueueLen()
	p0 := profiled(m.prof)
	t0 := time.Now()
	fn()
	d := since(t0)
	m.depth--
	m.secs[cb] += d
	m.lat[cb] = append(m.lat[cb], d)
	self := d - (profiled(m.prof) - p0)
	m.selfS += self
	// The runtime calls OnTick and OnComplete from inside its profiled tick
	// sweep, so the profiler charged their self time to runtime_tick.
	if cb == cbTick || cb == cbComplete {
		m.selfInTickS += self
		if q1 := m.q.QueueLen(); q0 > 0 {
			m.drainEntry += q0
			if q1 < q0 {
				m.drainOut += q0 - q1
			}
		}
	}
	if cb == cbTick {
		m.queueSum += float64(q0)
		m.queueN++
	}
}

// latencies returns the durations, in seconds, of the manager's decision
// passes: OnTick and OnComplete, which re-plan over the running and queued
// tasks. OnSubmit (which places a best-effort task or starts a targeted
// one's profiling; its admission runs later, in an engine event) and
// OnEvicted are left out: their microsecond calls, 10000 of them on
// scale-1k, set the median otherwise, and it then moved by a fifth between
// runs with the host's cache state.
func (m *timedManager) latencies() []float64 {
	return append(append([]float64(nil), m.lat[cbTick]...), m.lat[cbComplete]...)
}

// subsystems are the profiler's attribution buckets, indexed by their own
// value.
var subsystems = [...]prof.Subsystem{
	prof.SubSimStep, prof.SubRuntime, prof.SubSched, prof.SubClassify, prof.SubSLO, prof.SubChaos, prof.SubTrace,
}

// profiled is the total time the profiler has attributed so far (0 for nil).
func profiled(p *prof.Profiler) float64 {
	sum := 0.0
	for _, s := range subsystems {
		sum += p.Seconds(s)
	}
	return sum
}
