package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"

	"quasar/internal/obs"
)

// perLayer is every per-layer metric, in report order. Each traced run
// prints all of them; a layer the workload never enters (the serve layers on
// a sim workload, the manager internals the daemon does not expose) reads 0
// and is listed as not measured.
var perLayer = []struct{ name, unit string }{
	{"traced.run_s", "s"},
	{"sim.events", "count"},
	{"sim.step_self_s", "s"},
	{"core.runtime.ticks", "count"},
	{"core.runtime.tick_self_s", "s"},
	{"core.quasar.self_s", "s"},
	{"core.quasar.on_submit_s", "s"},
	{"core.quasar.on_tick_s", "s"},
	{"core.quasar.on_complete_s", "s"},
	{"core.quasar.on_submit.calls", "count"},
	{"core.quasar.on_tick.calls", "count"},
	{"core.quasar.on_complete.calls", "count"},
	{"core.quasar.on_complete_p99_ms", "ms"},
	{"core.quasar.queue_len_mean", "count"},
	{"core.quasar.drain_useful_frac", "frac"},
	{"core.quasar.admits", "count"},
	{"core.quasar.scales", "count"},
	{"core.quasar.reschedules", "count"},
	{"core.quasar.reclaims", "count"},
	{"classify.self_s", "s"},
	{"classify.classify.calls", "count"},
	{"classify.reclassify.calls", "count"},
	{"classify.rows", "count"},
	{"classify.retrain_ms", "ms"},
	{"cf.train.scale-up_ms", "ms"},
	{"cf.train.scale-out_ms", "ms"},
	{"cf.train.heterogeneity_ms", "ms"},
	{"cf.train.interference-tolerated_ms", "ms"},
	{"cf.train.interference-caused_ms", "ms"},
	{"sched.calls", "count"},
	{"sched.self_s", "s"},
	{"sched.placed_frac", "frac"},
	{"obs.trace.events", "count"},
	{"obs.trace.bytes", "bytes"},
	{"obs.trace_self_s", "s"},
	{"obs.trace_overhead_frac", "frac"},
	{"other_s", "s"},
	{"serve.api.decode_p99_us", "us"},
	{"serve.api.handler_p99_us", "us"},
	{"serve.journal.lock_wait_p99_us", "us"},
	{"serve.journal.lock_hold_p99_us", "us"},
	{"serve.journal.seal_wait_p99_us", "us"},
	{"serve.journal.flush_p99_us", "us"},
	{"serve.journal.bytes_per_req", "bytes"},
	{"serve.pacer.apply_p99_us", "us"},
	{"serve.pacer.lag_p99_ms", "ms"},
	{"serve.pacer.batch_mean", "count"},
	{"serve.gen_late_p99_ms", "ms"},
}

// addLayers reports every per-layer metric from vals, in perLayer order.
func addLayers(rep *report, vals map[string]float64) {
	var missing []string
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			missing = append(missing, m.name)
		}
		rep.add(m.name, v, m.unit)
	}
	for name := range vals {
		if !knownLayer(name) {
			panic("perfbench: unlisted per-layer metric " + name)
		}
	}
	if len(missing) > 0 {
		fmt.Printf("not measured on this workload (reported as 0): %s\n", strings.Join(missing, " "))
	}
}

func knownLayer(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

// countSink is a trace sink that counts events by category/name and reads
// the payloads the benchmark needs: schedule outcomes and cluster
// utilization samples.
type countSink struct {
	events      int
	byName      map[string]int
	schedPlaced int
	util        []utilSample // every cluster utilization sample

	// With tasks set, the sink also follows each task's placements and
	// completion, and counts evicts of tasks that were not running: queued
	// since they were last placed, or already complete.
	tasks            map[string]taskLife
	evictsNotRunning []float64 // their sim times
}

// utilSample is the "used" share of the cluster's cores at a sim time.
type utilSample struct{ at, used float64 }

// taskLife is what the trace has shown of one task so far.
type taskLife struct{ placed, completed bool }

func newCountSink() *countSink { return &countSink{byName: map[string]int{}} }

func (c *countSink) Start(*obs.Header) error { return nil }

func (c *countSink) Emit(ev *obs.Event, _ int) error {
	c.events++
	c.byName[ev.Cat+"/"+ev.Name]++
	switch {
	case ev.Cat == "sched" && ev.Name == "decision":
		for _, a := range ev.Args {
			if d, ok := a.Val.(obs.ScheduleDecision); ok && d.Outcome == obs.OutcomePlaced {
				c.schedPlaced++
			}
		}
	case c.tasks != nil && ev.Cat == "placement" && ev.Phase == obs.PhaseAsyncBegin:
		t := c.tasks[ev.Name]
		t.placed = true
		c.tasks[ev.Name] = t
	case c.tasks != nil && ev.Cat == "lifecycle" && ev.Name == "complete":
		id := strings.TrimPrefix(ev.Track, "workload/")
		t := c.tasks[id]
		t.completed = true
		c.tasks[id] = t
	case c.tasks != nil && ev.Cat == "lifecycle" && ev.Name == "evict":
		id := strings.TrimPrefix(ev.Track, "workload/")
		t := c.tasks[id]
		if !t.placed || t.completed {
			c.evictsNotRunning = append(c.evictsNotRunning, ev.Time)
		}
		t.placed = false // back in the queue
		c.tasks[id] = t
	case ev.Cat == "util" && ev.Name == "cores":
		for _, a := range ev.Args {
			if v, ok := a.Val.(float64); ok && a.Key == "used" {
				//lint:allow(hotalloc) one sample per simulated minute, bounded by the run
				c.util = append(c.util, utilSample{ev.Time, v})
			}
		}
	}
	return nil
}

func (c *countSink) Close(*obs.Registry) error { return nil }

func (c *countSink) RetainedBytes() (cur, high int) { return 0, 0 }

// decisionCounts fills the manager and classification decision counts, and
// the scheduler's call count and placed fraction, from the trace.
func (c *countSink) decisionCounts(vals map[string]float64) {
	vals["core.quasar.admits"] = float64(c.byName["quasar/admit"])
	vals["core.quasar.scales"] = float64(c.byName["quasar/scale"])
	vals["core.quasar.reschedules"] = float64(c.byName["quasar/reschedule"])
	vals["core.quasar.reclaims"] = float64(c.byName["quasar/reclaim"])
	vals["classify.classify.calls"] = float64(c.byName["classify/classify"])
	vals["classify.reclassify.calls"] = float64(c.byName["classify/reclassify"])
	if n := c.byName["sched/decision"]; n > 0 {
		vals["sched.placed_frac"] = float64(c.schedPlaced) / float64(n)
	}
	vals["obs.trace.events"] = float64(c.events)
}

// hashWriter is a write destination that keeps only a byte count and a
// SHA-256 of what it was given.
type hashWriter struct {
	n int64
	h hash.Hash
}

func newHashWriter() *hashWriter { return &hashWriter{h: sha256.New()} }

func (w *hashWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

func (w *hashWriter) sum() string { return hex.EncodeToString(w.h.Sum(nil)) }
