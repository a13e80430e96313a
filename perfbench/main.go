// Command perfbench is Quasar's end-to-end benchmark. It runs one named
// workload per process, prints every metric by name with its unit, checks the
// program's outputs, and ends with one JSON result line:
//
//	perfbench -workload paper-local40 -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it makes a
// separately instrumented run and reports the per-layer breakdown. Layers are
// measured from outside the program: the benchmark times calls into public
// functions (scenario assembly, the core.Manager callbacks, the
// classification engine, cf.Train, the serve HTTP API) and reads what the
// program already exposes (the self-profiler, trace sinks, the sim engine's
// event count, the daemon's /metrics, /statusz and /debug/requests).
//
// METRICS.md lists the workloads, the metrics, and which end-to-end metric
// each per-layer metric is expected to move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report collects a run's metrics, output checks and operation counts.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	checks    []string // failed output checks
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

// check records an output check; a failing one counts as a failed operation.
func (r *report) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		fmt.Printf("check ok:   %s\n", msg)
		return
	}
	fmt.Printf("check FAIL: %s\n", msg)
	r.checks = append(r.checks, msg)
	r.failed++
}

// options is what every workload runner receives.
type options struct {
	root    string // repository root (the benchmark's working tree)
	seed    int64
	seconds float64
	trace   bool
	// quick shrinks every workload for the self-test.
	quick bool
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"paper-local40": func(o options) (*report, error) { return runSim(o, paperLocal40) },
	"scale-1k":      func(o options) (*report, error) { return runSim(o, scale1k) },
	"serve-mixed":   runServe,
}

func main() {
	var (
		root     = flag.String("root", ".", "repository root the benchmark was built from")
		workload = flag.String("workload", "", "paper-local40 | scale-1k | serve-mixed")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 20, "measurement time per run, wall seconds")
		trace    = flag.Int("trace", 0, "0 reports end-to-end metrics; 1 makes the instrumented run and reports per-layer metrics")
	)
	if spec := os.Getenv(daemonEnv); spec != "" {
		if err := daemonMain(spec); err != nil {
			_, _ = fmt.Fprintln(os.Stderr, "perfbench daemon:", err)
			os.Exit(1)
		}
		return
	}
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		_, _ = fmt.Fprintf(os.Stderr, "usage: perfbench -workload <%s> -seed <n> -seconds <s> -trace <0|1>\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	printHost(*root)
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)
	rep, err := run(options{root: *root, seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(rep); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printHost records where and on what the result was measured. The checkout
// is not necessarily a git repository, so the commit is identified by a digest
// of the Go sources and go.mod files it was built from.
func printHost(root string) {
	digest, err := sourceDigest(root)
	if err != nil {
		digest = "unknown (" + err.Error() + ")"
	}
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s os=%s/%s source_sha256=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, digest)
}

// sourceDigest hashes every .go and go.mod file under root (path and
// contents, in lexical order), skipping hidden directories such as the build
// output.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)   // path is under root by construction
		_, _ = fmt.Fprintf(h, "%s\x00", rel) // hashing cannot fail
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// printResult prints each metric on its own line, then the JSON result line
// the benchmark contract reads: it must be the last line of standard output.
func printResult(r *report) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: len(r.checks) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	for _, m := range r.metrics {
		fmt.Printf("metric %-40s %16.6f %s\n", m.Name, m.Value, m.Unit)
		out.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	fmt.Printf("error_frac %.6f (%d failed of %d attempted)\n",
		float64(r.failed)/float64(out.Attempted), r.failed, out.Attempted)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

// peakRSSMB is the process's peak resident set size so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// cpuTicks reads the host's aggregate CPU time and the part of it the
// hypervisor stole (the "cpu" line of /proc/stat, in clock ticks); ok is
// false where that is unavailable.
func cpuTicks() (total, steal int64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealMeter reports the share of host CPU time stolen by the hypervisor
// between its start and report, so a reader can tell a slow run from a
// noisy host.
type stealMeter struct {
	total, steal int64
	ok           bool
}

func startSteal() stealMeter {
	t, s, ok := cpuTicks()
	return stealMeter{t, s, ok}
}

func (m stealMeter) report(what string) {
	t, s, ok := cpuTicks()
	if !m.ok || !ok || t <= m.total {
		return
	}
	fmt.Printf("host steal during %s: %.1f%% of CPU time\n", what, 100*float64(s-m.steal)/float64(t-m.total))
}

// since returns the seconds elapsed since t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
