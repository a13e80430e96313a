package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"quasar/internal/core"
)

// TestMain lets the test binary serve as the serve-mixed daemon child, as
// the benchmark binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(daemonEnv); spec != "" {
		if err := daemonMain(spec); err != nil {
			_, _ = fmt.Fprintln(os.Stderr, "perfbench daemon:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// benchmarkFile is the subset of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkloadsReportEveryMetric runs every workload at reduced size, traced
// and untraced, and asserts that all output checks pass and that each
// metric BENCHMARK.json names is reported with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				rep, err := run(options{root: root, seed: 1, seconds: 4, trace: trace, quick: true})
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.checks) > 0 || rep.failed > 0 {
					t.Errorf("%d failed operations, failed checks: %v", rep.failed, rep.checks)
				}
				want := b.EndToEnd
				if trace {
					want = b.PerLayer
				}
				got := map[string]string{}
				for _, m := range rep.metrics {
					got[m.Name] = m.Unit
				}
				if len(got) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(got), len(want))
				}
				for _, m := range want {
					if unit, ok := got[m.Name]; !ok || unit != m.Unit {
						t.Errorf("metric %s: reported unit %q (present %v), want %q", m.Name, unit, ok, m.Unit)
					}
				}
			})
		}
	}
}

// TestSimMixMatchesQuasarSim pins the sim workloads to quasar-sim: for the
// same flags at reduced size, the benchmark's submission mix must produce
// quasar-sim's printed statuses, target-% and CPU utilization.
func TestSimMixMatchesQuasarSim(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "quasar-sim")
	if out, err := exec.Command("go", "build", "-o", bin, "quasar/cmd/quasar-sim").CombinedOutput(); err != nil {
		t.Fatalf("building quasar-sim: %v\n%s", err, out)
	}
	for _, spec := range []simSpec{paperLocal40, scale1k} {
		spec := quickSpec(spec)
		t.Run(spec.name, func(t *testing.T) {
			out, err := exec.Command(bin, spec.args()...).Output()
			if err != nil {
				t.Fatalf("quasar-sim %v: %v", spec.args(), err)
			}
			w, err := buildSim(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			o := execute(spec, w).out
			var statuses strings.Builder
			statuses.WriteString("statuses: ")
			for st, n := range o.statuses {
				if n > 0 {
					fmt.Fprintf(&statuses, "%s=%d ", core.Status(st), n)
				}
			}
			for _, line := range []string{
				statuses.String(),
				fmt.Sprintf("mean %% of target achieved: %.1f%%", o.qosPct),
				fmt.Sprintf("mean CPU utilization: %.1f%%", o.utilPct),
			} {
				if !strings.Contains(string(out), line+"\n") {
					t.Errorf("quasar-sim output lacks the benchmark's %q:\n%s", line, out)
				}
			}
		})
	}
}
