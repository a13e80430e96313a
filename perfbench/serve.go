package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"quasar/internal/obs"
	"quasar/internal/par"
	"quasar/internal/serve"
)

// The serve-mixed workload: an open-loop generator in this process drives a
// daemon, booted in a child process, over loopback HTTP. The daemon runs at a
// fixed warp, so the simulated work per wall second is fixed. Requests go out
// on a seeded schedule: first a reference phase at a fixed rate, which the
// end-to-end metrics measure, then a ladder of doubling rates that stops at
// the first rung the daemon fails, which probes its capacity.
const (
	serveWarp   = 60 // sim seconds per wall second
	serveConns  = 2  // connections: admissions on one, reads on the other
	serveSetups = 15 // daemon boots per run; setup_s is their median
	// The limits sit above what a 2-vCPU virtual machine's hypervisor adds
	// on its own: bursts of steal move a submit's p99 up to ~25 ms.
	latencyLimit  = 50 * time.Millisecond
	decisionLimit = 250 * time.Millisecond
	phaseWindows  = 3 // windows per phase for the ladder's p99
	// keepUp is the share of a rung's offered admission rate the admission
	// connection must reach for the rung to pass.
	keepUp = 0.97
	// queueLimit is the longest daemon queue a passing rung may leave: the
	// reference phase ends with under 10 entries, and past this the
	// simulated cluster no longer places fillers as fast as they arrive.
	queueLimit = 1000

	maxSpans = 1 << 14 // request spans the daemon keeps
	refRate  = 200.0   // requests per second in the reference phase
	// refShare is the share of the run's seconds spent at the reference
	// rate. In about two runs of three the daemon spends ~0.3 CPU seconds on
	// one stall during the phase (a decision p99 of 100-200 ms); a longer
	// phase makes that a smaller share of cpu_s.
	refShare   = 0.8
	rungShare  = 1.0 / 15
	quickScale = 0.25 // share of the run's seconds the self-test uses
)

// ladder is the rates, in requests per second, tried after the reference
// phase, doubling from twice the reference rate until a rung fails. On a
// 2-vCPU virtual machine the daemon has failed at 800 or 1600 (a stall of
// 100-300 ms in submits, or a backlog of unapplied admissions); one
// connection can carry 5-8k admissions per second, so the top rungs are
// there only so the ladder never stops for want of rungs.
var ladder = []float64{400, 800, 1600, 3200, 6400, 12800, 25600}

// reqKind is one request type of the mix.
type reqKind int

const (
	kindBestEffort reqKind = iota // POST /v1/submit, best-effort filler
	kindTargeted                  // POST /v1/submit with a performance target
	kindEvict                     // POST /v1/evict/{id} of an earlier filler
	kindList                      // GET /v1/workloads?limit=20
	kindHealth                    // GET /healthz
)

// The mix is quasar-load's client loop as its comment describes it (drive in
// internal/serve/loadtest.go): every iteration submits a best-effort filler
// and evicts an earlier one, every 16th iteration lists workloads and every
// 64th probes /healthz. To that it adds one targeted submit every 64
// iterations, the only requests classified when applied; they are not
// evicted (the runtime refuses to evict a task with a target) and finish on
// their own. Per 64 iterations that is 64 filler submits, 63-64 evicts, 4
// lists, 1 health probe and 1 targeted submit. The seed places each list,
// probe and targeted submit within its block, so seeds differ only in order,
// not in how much work they ask for.
const (
	listEvery  = 16
	cycleIters = 64 // one health probe and one targeted submit per cycle
)

func (k reqKind) admission() bool { return k <= kindEvict }

// request is one scheduled request and what happened to it.
type request struct {
	phase int // 0 is the reference phase, i is ladder rung i
	due   time.Duration
	kind  reqKind

	attempted  bool          // sent, or failed before it could be
	noFiller   bool          // an evict sent as a health probe: no filler was ready
	sent, done time.Duration // from the schedule start
	late       time.Duration // generator wake-up after due, when it was idle
	idle       bool          // the connection was free before the request was due
	status     int
	err        error
	seq        int // journal sequence of an acknowledged admission
}

func (r *request) ok() bool {
	if r.err != nil {
		return false
	}
	switch r.kind {
	case kindBestEffort, kindTargeted, kindEvict:
		return r.status == http.StatusAccepted
	case kindHealth:
		// 503 is the daemon reporting its simulated cluster degraded, a
		// correct answer, as quasar-load also counts it.
		return r.status == http.StatusOK || r.status == http.StatusServiceUnavailable
	}
	return r.status == http.StatusOK
}

// latency is timed from when the request was due, so the wait a slow
// earlier request imposes on it counts, less the generator's own wake-up
// overshoot on an idle connection, which is reported as serve.gen_late.
func (r *request) latency() time.Duration {
	if r.idle {
		return r.done - r.sent
	}
	return r.done - r.due
}

// phasePlan is one constant-rate phase of the schedule.
type phasePlan struct {
	rate  float64
	start float64 // seconds from the schedule start
	secs  float64
}

// mixStream yields the mix's requests in order, one iteration at a time.
type mixStream struct {
	rng                      *rand.Rand
	iter                     int
	listAt, healthAt, target int // seeded iteration offsets in the current block
	pending                  []reqKind
}

func (m *mixStream) next() reqKind {
	for len(m.pending) == 0 {
		i := m.iter
		if i%cycleIters == 0 {
			m.healthAt, m.target = m.rng.Intn(cycleIters), m.rng.Intn(cycleIters)
		}
		if i%listEvery == 0 {
			m.listAt = m.rng.Intn(listEvery)
		}
		m.pending = append(m.pending, kindBestEffort)
		if i > 0 {
			m.pending = append(m.pending, kindEvict)
		}
		if i%cycleIters == m.target {
			m.pending = append(m.pending, kindTargeted)
		}
		if i%listEvery == m.listAt {
			m.pending = append(m.pending, kindList)
		}
		if i%cycleIters == m.healthAt {
			m.pending = append(m.pending, kindHealth)
		}
		m.iter++
	}
	k := m.pending[0]
	m.pending = m.pending[1:]
	return k
}

// schedule lays out the run's requests: the mix's request stream, cut into
// phases, with due times at each phase's rate.
func schedule(seed int64, phases []phasePlan) []*request {
	ms := &mixStream{rng: rand.New(rand.NewSource(seed))}
	var reqs []*request
	for p, ph := range phases {
		n := int(math.Round(ph.rate * ph.secs))
		for i := 0; i < n; i++ {
			due := ph.start + float64(i)/ph.rate
			reqs = append(reqs, &request{phase: p, due: time.Duration(due * float64(time.Second)), kind: ms.next()})
		}
	}
	return reqs
}

// plan is the run's phases: the reference phase, then every ladder rung.
func plan(secs float64) []phasePlan {
	phases := []phasePlan{{rate: refRate, secs: secs * refShare}}
	start := secs * refShare
	for _, r := range ladder {
		phases = append(phases, phasePlan{rate: r, start: start, secs: secs * rungShare})
		start += secs * rungShare
	}
	return phases
}

// admissionRate is one phase's offered and achieved admission rates:
// offered is the phase's admissions over its length; achieved is the median
// over the phase's windows of the admissions completed per second within
// each. A stall holds up requests that then complete in the next window, so
// one stall moves only one window; when the rate is beyond what the
// connection sustains, every window completes at that capacity.
func admissionRate(reqs []*request, ph phasePlan) (offered, achieved float64) {
	var done [phaseWindows]int
	win := ph.secs / phaseWindows
	n := 0
	for _, r := range reqs {
		if !r.kind.admission() {
			continue
		}
		n++
		if w := int((r.done.Seconds() - ph.start) / win); r.ok() && w >= 0 && w < phaseWindows {
			done[w]++
		}
	}
	rates := make([]float64, phaseWindows)
	for w, c := range done {
		rates[w] = float64(c) / win
	}
	return float64(n) / ph.secs, median(rates)
}

// fillers hands out acknowledged best-effort fillers, oldest first, for
// evictions. A filler is handed out only once an admission acknowledged
// after it has a later apply time: the daemon applies an epoch's entries in
// order and a submitted task arrives only after its epoch's entries are
// applied, so evicting a filler from the epoch still open would find it not
// yet arrived, and Runtime.Evict would queue it a second time.
type fillers struct {
	mu     sync.Mutex
	queue  []filler
	latest float64 // the latest apply time acknowledged
}

type filler struct {
	id      string
	applyAt float64
}

// acked records an admission's apply time, and the filler it submitted.
func (f *fillers) acked(applyAt float64, id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latest = max(f.latest, applyAt)
	if id != "" {
		f.queue = append(f.queue, filler{id, applyAt})
	}
}

func (f *fillers) pop() (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.queue) == 0 || f.queue[0].applyAt >= f.latest {
		return "", false
	}
	id := f.queue[0].id
	f.queue = f.queue[1:]
	return id, true
}

// sleepUntil blocks until t. Go's timers round sub-millisecond sleeps up to
// the netpoller's millisecond tick, which made a time.Sleep generator run
// 0.5 ms late at the median; nanosleep wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR from runtime signals: loop and re-check
	}
}

// generator sends the schedule open-loop over two keep-alive connections:
// admissions on one, reads on the other, so a read waiting for the engine
// lock never holds up the admission path behind it. Each connection sends
// its requests in order, each when due or as soon as the previous one
// completes if that is later; every request is timed from when it was due.
type generator struct {
	base    string
	clients [serveConns]*http.Client
	fill    fillers
	acked   atomic.Int64 // admissions acknowledged so far
	pass    []bool       // each ladder rung's verdict, by phase
}

func newGenerator(addr string, phases int) *generator {
	g := &generator{base: "http://" + addr, pass: make([]bool, phases)}
	for i := range g.clients {
		g.clients[i] = &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
			Timeout:   10 * time.Second,
		}
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// A filler's dataset is sized so that it outlasts the runtime tick after it
// is placed (with a twentieth of the default work, 2-13% of evicts found
// their filler finished at the reference rate; with a hundredth, a third),
// yet finishes soon enough that the 40-server cluster holds the fillers the
// reference rate submits (with a tenth, the queue grew by hundreds).
// Targeted submits get the same short dataset: they are classified when
// applied either way, but with the default dataset they ran for many
// minutes of simulated time, filled the cluster so that fillers queued, and
// their reclassification made the daemon's CPU time per run vary by a
// quarter.
var (
	bodyBestEffort = []byte(`{"type":"single-node","best_effort":true,"dataset":{"Name":"filler","SizeGB":1,"WorkMult":0.05,"MemMult":0.5}}`)
	bodyTargeted   = []byte(`{"type":"single-node","target_slack":1.3,"dataset":{"Name":"short","SizeGB":1,"WorkMult":0.05,"MemMult":0.5}}`)
)

// run sends reqs, which hold whole phases in schedule order, and returns the
// last phase it ran. The admission connection judges each ladder rung as
// soon as the rung's admissions have completed (rungPasses); the first rung
// that fails is the last one run. The read connection starts a phase only
// once the admission connection has finished the one before, so reads never
// run ahead into a rung that is not run.
func (g *generator) run(start time.Time, reqs []*request, phases []phasePlan) int {
	var lanes [serveConns][]*request
	for _, r := range reqs {
		c := 1
		if r.kind.admission() {
			c = 0
		}
		lanes[c] = append(lanes[c], r)
	}
	first := reqs[0].phase
	var last atomic.Int64 // the last phase to run
	last.Store(int64(reqs[len(reqs)-1].phase))
	finished := make([]chan struct{}, len(phases)) // closed when admissions finish a phase
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	send := func(c int, r *request) {
		due := start.Add(r.due)
		r.idle = time.Now().Before(due)
		sleepUntil(due)
		r.sent = time.Since(start)
		if r.idle {
			r.late = r.sent - r.due
		}
		r.attempted = true
		g.send(g.clients[c], r)
		r.done = time.Since(start)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // admissions
		defer wg.Done()
		p, from := first, 0
		closeFrom := func(p int) {
			for ; p < len(finished); p++ {
				close(finished[p])
			}
		}
		judge := func(to int) bool {
			if p == 0 {
				return true
			}
			g.pass[p] = g.rungPasses(lanes[0][from:to], phases[p])
			return g.pass[p]
		}
		for i, r := range lanes[0] {
			if r.phase != p {
				if !judge(i) {
					last.Store(int64(p))
					closeFrom(p)
					return
				}
				close(finished[p])
				p, from = r.phase, i
			}
			send(0, r)
		}
		judge(len(lanes[0]))
		closeFrom(p)
	}()
	go func() { // reads
		defer wg.Done()
		p := first
		for _, r := range lanes[1] {
			if r.phase != p {
				<-finished[r.phase-1]
				if int64(r.phase) > last.Load() {
					return
				}
				p = r.phase
			}
			send(1, r)
		}
	}()
	wg.Wait()
	return int(last.Load())
}

// rungPasses is the ladder rule for one rung's admissions: every one
// succeeded, the connection kept up with the offered admission rate, submit
// p99 stayed within the latency limit, the daemon had applied everything
// acknowledged within the decision limit of the rung's end (no growing
// applied backlog), and its queue still held the fillers (no growing world).
// Rate and p99 are medians over the rung's windows, so one stall does not
// fail a rung the daemon otherwise sustains.
func (g *generator) rungPasses(reqs []*request, ph phasePlan) bool {
	for _, r := range reqs {
		if !r.ok() {
			return false
		}
	}
	offered, achieved := admissionRate(reqs, ph)
	if achieved < keepUp*offered || windowP99(reqs, ph) > latencyLimit.Seconds() {
		return false
	}
	st, err := g.waitApplied(decisionLimit)
	return err == nil && st.QueueLen <= queueLimit
}

// daemonStatus is the part of the daemon's /statusz the benchmark reads.
type daemonStatus struct {
	SimTime  float64 `json:"sim_time"`
	Applied  int     `json:"applied"`
	Fired    float64 `json:"fired_events"`
	QueueLen int     `json:"queue_len"`
}

// waitApplied polls /statusz until the daemon has applied every admission
// acknowledged so far, or the wait runs out.
func (g *generator) waitApplied(wait time.Duration) (daemonStatus, error) {
	deadline := time.Now().Add(wait)
	for {
		var st daemonStatus
		if err := getJSON(g.base, "/statusz", &st); err != nil {
			return st, err
		}
		acked := int(g.acked.Load())
		if st.Applied >= acked {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("%d of %d acknowledged admissions applied after %v", st.Applied, acked, wait)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// send issues one request and records its outcome.
func (g *generator) send(c *http.Client, r *request) {
	method, path, body := http.MethodGet, "/healthz", []byte(nil)
	switch r.kind {
	case kindBestEffort:
		method, path, body = http.MethodPost, "/v1/submit", bodyBestEffort
	case kindTargeted:
		method, path, body = http.MethodPost, "/v1/submit", bodyTargeted
	case kindEvict:
		if id, ok := g.fill.pop(); ok {
			method, path = http.MethodPost, "/v1/evict/"+id
		} else {
			r.kind, r.noFiller = kindHealth, true // nothing to evict yet
		}
	case kindList:
		path = "/v1/workloads?limit=20"
	}
	req, err := http.NewRequest(method, g.base+path, bytes.NewReader(body))
	if err != nil {
		r.err = err
		return
	}
	resp, err := c.Do(req)
	if err != nil {
		r.err = err
		return
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read fully; nothing to flush
	r.status = resp.StatusCode
	if err != nil {
		r.err = err
		return
	}
	if r.kind.admission() && r.status == http.StatusAccepted {
		var ack struct {
			Workload string  `json:"workload"`
			Seq      int     `json:"seq"`
			ApplyAt  float64 `json:"apply_at"`
		}
		if err := json.Unmarshal(data, &ack); err != nil {
			r.err = fmt.Errorf("decoding admission ack: %w", err)
			return
		}
		r.seq = ack.Seq
		g.acked.Add(1)
		if r.kind != kindBestEffort {
			ack.Workload = ""
		}
		g.fill.acked(ack.ApplyAt, ack.Workload)
	}
}

// getJSON fetches a daemon endpoint and decodes its JSON body.
func getJSON(base, path string, v any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// promValue reads one sample (name plus optional label set, as printed) from
// a Prometheus text exposition.
func promValue(text []byte, sample string) (float64, bool) {
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// serveRun is one boot-load-shutdown cycle of the daemon.
type serveRun struct {
	setups []float64
	reqs   []*request
	phases []phasePlan
	last   int    // the last phase run
	pass   []bool // each ladder rung's verdict, by phase
	// The reference phase: its length to the last acknowledged admission
	// applied, the daemon's CPU time and peak resident set over it, the
	// admissions acknowledged, and the daemon's sim time at its end.
	runS, cpuS, rssMB float64
	refAcked          int
	refSimEnd         float64
	acked             int
	applied           int
	spans             map[int]serve.RequestSpan // by journal sequence
	prom              []byte
	fired             float64
	journal           string
	tracePath         string
	serveErr          error
}

// workDir makes a fresh directory for journals and traces under the
// checkout's build output.
func workDir(root string) (string, error) {
	base := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "serve-")
}

// daemonSpec configures the daemon child process.
type daemonSpec struct {
	Dir        string `json:"dir"`
	Trace      bool   `json:"trace"`
	Setups     int    `json:"setups"`
	RequestLog int    `json:"request_log"`
}

func (d daemonSpec) journal(i int) string {
	return filepath.Join(d.Dir, fmt.Sprintf("journal-%d.jsonl", i))
}

func (d daemonSpec) tracePath(i int) string {
	return filepath.Join(d.Dir, fmt.Sprintf("trace-%d.jsonl", i))
}

// daemonEnv, set in the environment, makes this binary the serve-mixed
// daemon child, configured by the spec file it names.
const daemonEnv = "PERFBENCH_DAEMON"

// daemonMain is the daemon child process: it boots the daemon spec.Setups
// times, timing each serve.New, shuts all but the last down at once, and
// serves the last until it is shut down over the API. It reports on standard
// output, one line each: "boot <seconds>" per boot, "ready <addr>", and
// after shutdown "applied <n>".
func daemonMain(specPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec daemonSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("daemon spec: %w", err)
	}
	// One worker for the daemon's parallel fan-outs (classification
	// training) leaves the other CPU to the HTTP path and the generator; the
	// worker count never changes the daemon's results.
	par.SetDefaultWorkers(1)
	for i := 0; i < spec.Setups; i++ {
		opts := serve.Options{
			Addr:        "127.0.0.1:0",
			Config:      serve.Config{Seed: scenarioSeed, SLO: true},
			JournalPath: spec.journal(i),
			Warp:        serveWarp,
			RequestLog:  spec.RequestLog,
		}
		if spec.Trace {
			opts.TracePath = spec.tracePath(i)
		}
		// Each boot is timed from a collected heap with the collector
		// paused: whether a collection fell inside a ~5 ms boot depended on
		// the heap the earlier boots left, and split boot times into two
		// modes 2 ms apart.
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		t0 := time.Now()
		srv, err := serve.New(opts)
		boot := since(t0)
		debug.SetGCPercent(gcPercent)
		if err != nil {
			return fmt.Errorf("booting the daemon: %w", err)
		}
		fmt.Printf("boot %s\n", ftoa(boot))
		if i < spec.Setups-1 {
			srv.Shutdown()
			if err := srv.Serve(); err != nil {
				return fmt.Errorf("stopping boot %d: %w", i, err)
			}
			continue
		}
		fmt.Printf("ready %s\n", srv.Addr())
		if err := srv.Serve(); err != nil {
			return err
		}
		fmt.Printf("applied %d\n", srv.Applied())
	}
	return nil
}

// daemon is the parent's handle on the daemon child process.
type daemon struct {
	cmd    *exec.Cmd
	lines  *bufio.Scanner
	addr   string
	setups []float64
	waited bool
}

// startDaemon launches this binary as the daemon child and waits until it
// is ready to serve.
func startDaemon(spec daemonSpec) (*daemon, error) {
	specPath := filepath.Join(spec.Dir, "daemon.json")
	data, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: exec.Command(self)}
	d.cmd.Env = append(os.Environ(), daemonEnv+"="+specPath)
	d.cmd.Stderr = os.Stderr
	// The child dies with this process, however it ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the daemon: %w", err)
	}
	d.lines = bufio.NewScanner(out)
	for d.addr == "" {
		key, val, err := d.next()
		if err != nil {
			d.stop()
			return nil, err
		}
		switch key {
		case "boot":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				d.stop()
				return nil, fmt.Errorf("daemon boot line %q: %w", val, err)
			}
			d.setups = append(d.setups, v)
		case "ready":
			d.addr = val
		}
	}
	return d, nil
}

// next reads the child's next report line.
func (d *daemon) next() (key, val string, err error) {
	if !d.lines.Scan() {
		if err := d.lines.Err(); err != nil {
			return "", "", err
		}
		return "", "", errors.New("daemon exited early")
	}
	key, val, _ = strings.Cut(d.lines.Text(), " ")
	return key, val, nil
}

// stop kills the child if it is still running and waits for it.
func (d *daemon) stop() {
	if d.waited {
		return
	}
	_ = d.cmd.Process.Kill() // it may have exited already
	_ = d.cmd.Wait()         // the error is the kill we just sent
	d.waited = true
}

// shutdown asks the daemon to stop over the API, reads how many entries it
// applied, and waits for the process to exit.
func (d *daemon) shutdown() (applied int, err error) {
	resp, err := http.Post("http://"+d.addr+"/v1/shutdown", "application/json", nil)
	if err != nil {
		return 0, err
	}
	_ = resp.Body.Close() // read fully; nothing to flush
	key, val, err := d.next()
	if err != nil {
		return 0, err
	}
	if key != "applied" {
		return 0, fmt.Errorf("unexpected daemon line %q", key+" "+val)
	}
	if applied, err = strconv.Atoi(val); err != nil {
		return 0, err
	}
	d.waited = true
	if err := d.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("daemon: %w", err)
	}
	return applied, nil
}

// runDaemon boots the daemon child, drives it with the schedule, waits until
// every acknowledged admission is applied, collects the daemon's own
// telemetry, and shuts it down.
func runDaemon(o options, dir string) (*serveRun, error) {
	secs := o.seconds
	spec := daemonSpec{Dir: dir, Trace: o.trace, Setups: serveSetups}
	if o.quick {
		secs *= quickScale
		spec.Setups = 2
	}
	sr := &serveRun{phases: plan(secs)}
	sr.reqs = schedule(o.seed, sr.phases)
	// The spans are read after the reference phase and again after the
	// ladder, so the ring need not hold the whole run; it is part of what
	// serve.New allocates.
	spec.RequestLog = maxSpans
	sr.journal = spec.journal(spec.Setups - 1)
	if o.trace {
		sr.tracePath = spec.tracePath(spec.Setups - 1)
	}

	d, err := startDaemon(spec)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	sr.setups = d.setups
	fmt.Printf("daemon boots (s): %s\n", ftoaList(d.setups))
	g := newGenerator(d.addr, len(sr.phases))
	defer g.close()
	if _, err := g.waitApplied(0); err != nil {
		return nil, fmt.Errorf("daemon not answering: %w", err)
	}

	// The reference phase, which the end-to-end metrics measure: it ends
	// when the daemon has applied every admission it acknowledged.
	nRef := 0
	for nRef < len(sr.reqs) && sr.reqs[nRef].phase == 0 {
		nRef++
	}
	pid := d.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	start := time.Now().Add(50 * time.Millisecond)
	steal := startSteal()
	g.run(start, sr.reqs[:nRef], sr.phases)
	ref, err := g.waitApplied(10 * time.Second)
	if err != nil {
		return nil, err
	}
	sr.runS = since(start)
	steal.report("the reference phase")
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	sr.cpuS = cpu1 - cpu0
	if sr.rssMB, err = procPeakRSSMB(pid); err != nil {
		return nil, err
	}
	sr.refAcked, sr.refSimEnd = int(g.acked.Load()), ref.SimTime
	fmt.Printf("daemon after the reference phase: sim time %.0f s, %d admissions applied, queue %d\n", ref.SimTime, ref.Applied, ref.QueueLen)
	sr.spans = map[int]serve.RequestSpan{}
	if err := sr.readSpans(g.base); err != nil {
		return nil, err
	}

	// The ladder, which probes the daemon's capacity.
	start = time.Now().Add(50 * time.Millisecond)
	steal = startSteal()
	sr.last = g.run(start, sr.reqs[nRef:], sr.phases)
	steal.report("the ladder")
	sr.pass = g.pass
	sent := sr.reqs[:0]
	for _, r := range sr.reqs {
		if r.attempted { // not in a rung past the one the ladder stopped at
			sent = append(sent, r)
		}
	}
	sr.reqs = sent
	sr.acked = int(g.acked.Load())
	st, err := g.waitApplied(10 * time.Second)
	if err != nil {
		return nil, err
	}
	sr.fired = st.Fired
	fmt.Printf("daemon after the ladder: sim time %.0f s, %d admissions applied, queue %d\n", st.SimTime, st.Applied, st.QueueLen)
	base := g.base

	if err := sr.readSpans(base); err != nil {
		return nil, err
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	sr.prom, err = io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read fully; nothing to flush
	if err != nil {
		return nil, err
	}
	g.close()
	sr.applied, sr.serveErr = d.shutdown()
	return sr, nil
}

// readSpans adds the daemon's retained request spans to sr.spans.
func (sr *serveRun) readSpans(base string) error {
	var spans struct {
		Requests []serve.RequestSpan `json:"requests"`
	}
	if err := getJSON(base, "/debug/requests?limit="+strconv.Itoa(maxSpans), &spans); err != nil {
		return err
	}
	for _, sp := range spans.Requests {
		sr.spans[sp.Seq] = sp
	}
	return nil
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
const clockTicks = 100

// procCPU is a process's user plus system CPU seconds so far.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The fields after the command name, which ends with the last ')',
	// start at field 3; utime and stime are fields 14 and 15.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks float64
	for _, v := range f[11:13] {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, err
		}
		ticks += t
	}
	return ticks / clockTicks, nil
}

// procPeakRSSMB is a process's peak resident set so far (VmHWM).
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// phaseStats summarizes one phase's requests.
type phaseStats struct {
	n, failed                int
	offered, rate            float64 // offered and achieved admissions per second
	submitP50, submitP99     float64 // seconds, from due
	submitP99Win             float64 // median over phaseWindows of each window's p99
	readP99                  float64
	decisionP50, decisionP99 float64 // handler receive to engine apply, seconds
	withinLimit              int
}

func (sr *serveRun) phase(p int) phaseStats {
	var ps phaseStats
	var reqs []*request
	var sub, rd, dec []float64
	ph := sr.phases[p]
	for _, r := range sr.reqs {
		if r.phase != p {
			continue
		}
		reqs = append(reqs, r)
		ps.n++
		if !r.ok() {
			ps.failed++
			continue
		}
		lat := r.latency().Seconds()
		if lat <= latencyLimit.Seconds() {
			ps.withinLimit++
		}
		switch r.kind {
		case kindBestEffort, kindTargeted:
			sub = append(sub, lat)
		case kindList, kindHealth:
			rd = append(rd, lat)
		}
		if sp, ok := sr.spans[r.seq]; ok && r.kind.admission() && sp.Outcome != "" {
			dec = append(dec, sp.AdmitToDecisionUS/1e6)
		}
	}
	ps.offered, ps.rate = admissionRate(reqs, ph)
	ps.submitP50, ps.submitP99 = percentile(sub, 50), percentile(sub, 99)
	ps.submitP99Win = windowP99(reqs, ph)
	ps.readP99 = percentile(rd, 99)
	ps.decisionP50, ps.decisionP99 = percentile(dec, 50), percentile(dec, 99)
	return ps
}

// windowP99 is the median over a phase's windows, by due time, of each
// window's p99 submit latency.
func windowP99(reqs []*request, ph phasePlan) float64 {
	var win [phaseWindows][]float64
	for _, r := range reqs {
		if (r.kind == kindBestEffort || r.kind == kindTargeted) && r.ok() {
			w := min(int((r.due.Seconds()-ph.start)/(ph.secs/phaseWindows)), phaseWindows-1)
			win[w] = append(win[w], r.latency().Seconds())
		}
	}
	p99 := make([]float64, phaseWindows)
	for w := range win {
		p99[w] = percentile(win[w], 99)
	}
	return median(p99)
}

// checkServe runs the serve output checks and counts operations. Whether
// each admission applied, and without error, is read from the journal
// replay's deterministic serve.apply events; the wall-clock spans only report
// how many of them never recorded their apply.
func checkServe(rep *report, sr *serveRun, replay *countSink) {
	for _, r := range sr.reqs {
		rep.attempted++
		if !r.ok() {
			rep.failed++
		}
	}
	rep.check(sr.serveErr == nil, "daemon shut down cleanly (%v)", sr.serveErr)
	rep.check(sr.applied == sr.acked, "every acknowledged admission was applied by shutdown (%d of %d)", sr.applied, sr.acked)
	applied, applyErr := replay.byName["serve/serve.apply"], replay.byName["serve/serve.apply-error"]
	rep.check(applied == sr.acked && applyErr == 0,
		"the journal replay applies every acknowledged admission without an apply error (%d applied, %d errors)", applied, applyErr)
	evicts, probes := 0, 0
	for _, r := range sr.reqs {
		if r.kind == kindEvict && r.ok() {
			evicts++
		}
		if r.noFiller {
			probes++
		}
	}
	// The API has no way to remove a workload: Runtime.Evict puts a task back
	// in the queue whatever its status, and a best-effort task leaves only by
	// completing, which the runtime decides at its 5 s ticks. So no open-loop
	// client can make sure an evict finds its filler running; the fillers
	// handed out are from an earlier epoch, so they have arrived, and this
	// counts the evicts that found one still queued or already finished
	// (which queues it twice or runs it again).
	refBad := 0
	for _, at := range replay.evictsNotRunning {
		if at <= sr.refSimEnd {
			refBad++
		}
	}
	fmt.Printf("evicts: %d acknowledged (%d in the replay, the rest are the manager's), %d sent as health probes for want of a filler from an earlier epoch, %d found their filler queued or finished (%d in the reference phase)\n",
		evicts, replay.byName["lifecycle/evict"], probes, len(replay.evictsNotRunning), refBad)
	open := 0
	for _, sp := range sr.spans {
		if sp.Outcome == "" {
			open++
		}
	}
	// Journal.Admit opens a span after releasing the journal lock, so an epoch
	// that seals and applies the entry first finds no span to close.
	fmt.Printf("telemetry: %d of %d request spans never recorded their apply\n", open, len(sr.spans))
	// A run whose generator woke later than the latency limit measured the
	// host, not the daemon, and is invalid.
	late := percentile(lateness(sr), 99)
	rep.check(late <= latencyLimit.Seconds(),
		"generator ran on schedule: wake-up p99 %.3f ms within %.0f ms", 1e3*late, 1e3*latencyLimit.Seconds())
}

// lateness is the generator's own wake-up lateness, over requests whose
// connection was free before they were due.
func lateness(sr *serveRun) []float64 {
	var l []float64
	for _, r := range sr.reqs {
		if r.idle {
			l = append(l, r.late.Seconds())
		}
	}
	return l
}

// replayJournal replays the daemon's journal through a counting sink and a
// hashing stream sink.
func replayJournal(path string) (*countSink, *hashWriter, error) {
	cs := newCountSink()
	cs.tasks = map[string]taskLife{}
	hw := newHashWriter()
	if _, err := serve.Replay(path, serve.ReplayOptions{Sinks: []obs.Sink{obs.NewStreamSinkWriter(hw), cs}}); err != nil {
		return nil, nil, fmt.Errorf("replaying the journal: %w", err)
	}
	return cs, hw, nil
}

// runServe is the runner for serve-mixed.
func runServe(o options) (*report, error) {
	dir, err := workDir(o.root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sr, err := runDaemon(o, dir)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	cs, hw, err := replayJournal(sr.journal)
	if err != nil {
		return nil, err
	}
	checkServe(rep, sr, cs)
	// max_rate_rps is the highest rung that passes the ladder rule; the
	// ladder stops at the first rung that fails it.
	maxRate := 0.0
	for p := 0; p <= sr.last; p++ {
		ph, ps := sr.phases[p], sr.phase(p)
		verdict := "reference"
		if p > 0 {
			verdict = fmt.Sprintf("pass=%v", sr.pass[p])
		}
		fmt.Printf("phase %d: offered %.0f/s for %.2fs: %d requests, %d failed, admissions offered %.1f/s achieved %.1f/s, submit p50 %.3f ms p99 %.3f ms (window median %.3f ms), read p99 %.3f ms, decision p50 %.3f ms p99 %.3f ms, %s\n",
			p, ph.rate, ph.secs, ps.n, ps.failed, ps.offered, ps.rate, 1e3*ps.submitP50, 1e3*ps.submitP99, 1e3*ps.submitP99Win, 1e3*ps.readP99, 1e3*ps.decisionP50, 1e3*ps.decisionP99, verdict)
		if p > 0 && sr.pass[p] {
			maxRate = ph.rate
		}
	}
	if sr.last == len(sr.phases)-1 && sr.pass[sr.last] {
		fmt.Println("note: the daemon passed the top rung; max_rate_rps is the ladder's ceiling")
	}
	var world []string
	for _, g := range []string{"tasks_total", "tasks_running", "quasar_queue_len", "sim_events_fired", "batch_completions_total"} {
		v, _ := promValue(sr.prom, g)
		world = append(world, fmt.Sprintf("%s=%.0f", g, v))
	}
	fmt.Printf("daemon world at the end of the load: %s\n", strings.Join(world, " "))
	if o.trace {
		return serveLayers(rep, sr, cs, hw)
	}

	ref := sr.phase(0)
	fmt.Printf("serve metrics: submit_p50_ms %.4f ms, submit_p99_ms %.4f ms, read_p99_ms %.4f ms, decision_p99_ms %.4f ms, max_rate_rps %.0f 1/s, gen_late_p99_ms %.4f ms\n",
		1e3*ref.submitP50, 1e3*ref.submitP99, 1e3*ref.readP99, 1e3*ref.decisionP99, maxRate, 1e3*percentile(lateness(sr), 99))

	rep.add("setup_s", median(sr.setups), "s")
	rep.add("run_s", sr.runS, "s")
	rep.add("cpu_s", sr.cpuS, "s")
	rep.add("peak_rss_mb", sr.rssMB, "MB")
	rep.add("latency_p50_ms", 1e3*ref.submitP50, "ms")
	rep.add("throughput_per_s", float64(sr.refAcked)/sr.cpuS, "1/s")
	rep.add("qos_target_pct", 100*float64(ref.withinLimit)/float64(ref.n), "%")
	var util []float64
	for _, u := range cs.util {
		if u.at <= sr.refSimEnd {
			util = append(util, u.used)
		}
	}
	rep.add("cpu_util_pct", 100*mean(util), "%")
	return rep, nil
}

// serveLayers reports the traced serve run's per-layer metrics: the daemon's
// own request spans and /metrics, the generator's lateness, and the
// sim-plane counts from replaying the journal, whose trace must match the
// live daemon's byte for byte.
func serveLayers(rep *report, sr *serveRun, cs *countSink, hw *hashWriter) (*report, error) {
	live, err := os.ReadFile(sr.tracePath)
	if err != nil {
		return nil, fmt.Errorf("reading the live trace: %w", err)
	}
	lh := newHashWriter()
	_, _ = lh.Write(live) // hashing cannot fail
	rep.check(lh.sum() == hw.sum() && lh.n == hw.n,
		"replaying the journal reproduces the live trace byte for byte (%d vs %d bytes)", hw.n, lh.n)

	var decode, handler, wait, hold, seal, flush, apply []float64
	for _, sp := range sr.spans {
		decode = append(decode, sp.DecodeUS)
		handler = append(handler, sp.HandlerUS)
		wait = append(wait, sp.LockWaitUS)
		hold = append(hold, sp.LockHoldUS)
		if sp.Outcome == "" {
			continue // the span missed its seal and apply (see checkServe)
		}
		seal = append(seal, sp.SealWaitUS)
		flush = append(flush, sp.FlushUS)
		apply = append(apply, sp.ApplyUS)
	}
	vals := map[string]float64{
		"traced.run_s":                   sr.runS,
		"sim.events":                     sr.fired,
		"obs.trace.bytes":                float64(lh.n),
		"serve.api.decode_p99_us":        percentile(decode, 99),
		"serve.api.handler_p99_us":       percentile(handler, 99),
		"serve.journal.lock_wait_p99_us": percentile(wait, 99),
		"serve.journal.lock_hold_p99_us": percentile(hold, 99),
		"serve.journal.seal_wait_p99_us": percentile(seal, 99),
		"serve.journal.flush_p99_us":     percentile(flush, 99),
		"serve.pacer.apply_p99_us":       percentile(apply, 99),
		"serve.gen_late_p99_ms":          1e3 * percentile(lateness(sr), 99),
	}
	if v, ok := promValue(sr.prom, "journal_bytes"); ok && sr.acked > 0 {
		vals["serve.journal.bytes_per_req"] = v / float64(sr.acked)
	}
	if v, ok := promValue(sr.prom, `serve_pacer_lag_us{quantile="0.99"}`); ok {
		vals["serve.pacer.lag_p99_ms"] = v / 1e3
	}
	if v, ok := promValue(sr.prom, "serve_epoch_batch_size_count"); ok && v > 0 {
		vals["serve.pacer.batch_mean"] = float64(sr.acked) / v
	}
	cs.decisionCounts(vals)
	for k, v := range vals {
		if math.IsNaN(v) {
			return nil, errors.New("no samples for " + k)
		}
	}
	addLayers(rep, vals)
	return rep, nil
}
