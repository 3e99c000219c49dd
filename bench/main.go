// Command bench is the repository's benchmark: it measures what a client
// of cmd/dustserve sees — set-up time, search and PUT latency, server CPU
// and memory, result quality — on four workloads that each stress another
// share of the request, and, in a separate traced run, how that time divides
// over the layers of Algorithm 1. BENCHMARK.json at the repository root
// declares the workloads and metrics; README.md in this directory explains
// them.
//
// Usage, from the repository root (run.sh builds this module first):
//
//	bash bench/run.sh                                              # every workload, both kinds of run
//	bash bench/run.sh --workload tall --seed 7 --seconds 18 --trace 0
//	bash bench/run.sh -compare a/results.json b/results.json
//
// One workload run prints its metrics by name and, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"dust"
)

// manifest is BENCHMARK.json.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &m, nil
}

// pinned is inputs.json: the sha256 of each workload's generated inputs at
// the pinned seed. Every run regenerates those and compares, so a change to
// internal/datagen cannot shift the numbers unnoticed, whatever seed the
// run itself uses.
type pinned struct {
	Seed      int64             `json:"seed"`
	Workloads map[string]string `json:"inputs_sha256"`
}

// options are what a workload run needs to know beside its sizes.
type options struct {
	moddir  string // this benchmark's module directory, which holds inputs.json
	out     string // directory for results.json, traces and the server binary
	seed    int64
	seconds int
	trace   bool
}

func main() {
	// The command runs from the repository root.
	o := options{moddir: "bench", out: filepath.Join("bench", "out")}
	var workloadName string
	var compare bool
	flag.StringVar(&workloadName, "workload", "", "workload to run (default: all, both kinds of run, writing bench/out/results.json)")
	flag.Int64Var(&o.seed, "seed", 7, "seed every input is generated from")
	flag.IntVar(&o.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: the traced run, printing the per-layer metrics; 0: the end-to-end metrics")
	flag.BoolVar(&compare, "compare", false, "compare two results.json files (arguments) against the bounds of BENCHMARK.json")
	pin := flag.Bool("pin", false, "rewrite inputs.json from the inputs generated at -seed, after a deliberate change of the generator")
	flag.Parse()
	o.trace = *trace == 1

	mf, err := readManifest("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two results.json files"))
		}
		ok, err := compareFiles(os.Stdout, mf, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if o.seconds == 0 {
		o.seconds = mf.RunSeconds
	}
	if *pin {
		if err := writePinned(o); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}
	bin, err := buildServer(o.moddir, filepath.Join(o.out, "bin"))
	if err != nil {
		fatal(err)
	}
	env := environment()
	fmt.Printf("environment: %s\n", env)
	if env.LoadAvg1 > float64(env.NProc) {
		fmt.Printf("WARNING: 1-min load average %.2f exceeds nproc %d; timings will be noisy\n", env.LoadAvg1, env.NProc)
	}

	if workloadName != "" {
		w, ok := findWorkload(workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", workloadName))
		}
		rep, err := runWorkload(w, defaultConfig(o.seconds), o, mf, bin)
		var wrong wrongOutput
		if errors.As(err, &wrong) {
			// The run ended, but what the program answered is wrong: say so
			// in the result line, with nothing measured.
			fmt.Fprintln(os.Stderr, "bench:", err)
			rep, err = &report{result: result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}}, nil
		}
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(rep.result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !rep.Correct {
			os.Exit(1)
		}
		return
	}

	all := results{Env: env, Seed: o.seed, Seconds: o.seconds, Workloads: map[string]*workloadResults{}}
	for _, w := range workloads {
		wr := &workloadResults{}
		for _, traced := range []bool{false, true} {
			o.trace = traced
			rep, err := runWorkload(w, defaultConfig(o.seconds), o, mf, bin)
			if err != nil {
				fatal(err)
			}
			wr.InputsSHA256 = rep.inputsSHA256
			if traced {
				wr.PerLayer = rep.result
			} else {
				wr.EndToEnd = rep.result
			}
		}
		// Spans are recorded by the client, outside the server, so the two
		// runs should agree at the host's quiet speed; the share they differ
		// by is the noise between two runs plus whatever tracing costs.
		e2e := wr.EndToEnd.Metrics["search_p50_ms"].Value
		wr.TraceOverheadShare = (wr.PerLayer.Metrics["serve.request_p50_ms"].Value - e2e) / e2e
		fmt.Printf("%s: trace.overhead_share %.4f\n", w.name, wr.TraceOverheadShare)
		all.Workloads[w.name] = wr
	}
	path := filepath.Join(o.out, "results.json")
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// results is bench/out/results.json: one complete set of runs.
type results struct {
	Env       envInfo                     `json:"environment"`
	Seed      int64                       `json:"seed"`
	Seconds   int                         `json:"seconds"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

type workloadResults struct {
	InputsSHA256       string  `json:"inputs_sha256"`
	EndToEnd           result  `json:"end_to_end"`
	PerLayer           result  `json:"per_layer"`
	TraceOverheadShare float64 `json:"trace_overhead_share"`
}

// report is one workload run: the result line plus what the full-set mode
// records beside it.
type report struct {
	result
	inputsSHA256 string
}

// runWorkload is one run of one workload: end-to-end with tracing off, or
// the traced run.
func runWorkload(w workload, cfg config, o options, mf *manifest, bin string) (*report, error) {
	start := time.Now()
	in, err := makeInputs(w, cfg, o.seed)
	if err != nil {
		return nil, err
	}
	if cfg.tables == 0 {
		if err := checkPinned(w, cfg, o, in); err != nil {
			return nil, err
		}
	}
	fmt.Printf("%s: seed %d, lake %s, inputs_sha256 %s\n", w.name, o.seed, in.spec.String(), in.sha256)

	var tr *tracer
	if o.trace {
		tr = &tracer{t0: time.Now()}
		// One short round of the workload's own traffic is enough for the
		// serving layer's spans; the in-process layers take the rest.
		cfg.rounds, cfg.window = 1, cfg.window/5
	}
	rounds, pool, err := run(bin, in, cfg, o.seed, tr)
	if err != nil {
		return nil, err
	}
	rep := &report{inputsSHA256: in.sha256}
	t, err := tally(in, pool, rounds)
	if err != nil {
		return nil, wrong(w, err)
	}
	rep.Attempted, rep.Failed = t.attempted, t.failed

	var declaredSet []declared
	if o.trace {
		layers, err := traceLayers(tr, in, pool, t, rounds, o.out)
		if err != nil {
			return nil, wrong(w, err)
		}
		rep.Metrics = layers
		for name, m := range serveLayer(t, rounds) {
			rep.Metrics[name] = m
		}
		if err := tr.write(filepath.Join(o.out, "trace-"+w.name+".jsonl")); err != nil {
			return nil, err
		}
		declaredSet = mf.PerLayer
	} else {
		if !w.open {
			// The traced run checks every pool query against the in-process
			// pipeline; here a seeded few keep watch at a few seconds' cost.
			ref := dust.New(in.spec.Generate())
			positions := rand.New(rand.NewSource(o.seed)).Perm(len(pool))[:min(4, len(pool))]
			if err := checkReference(ref, in, pool, t, positions); err != nil {
				return nil, wrong(w, err)
			}
		}
		rep.Metrics = t.endToEnd()
		declaredSet = mf.EndToEnd
	}
	if err := matchDeclared(rep.Metrics, declaredSet); err != nil {
		return nil, err
	}
	rep.Correct = true
	for _, d := range declaredSet {
		m := rep.Metrics[d.Name]
		fmt.Printf("%-12s %-32s %14.4f %s\n", w.name, d.Name, m.Value, m.Unit)
	}
	fmt.Printf("%s: %s; %d attempted, %d failed; %.1fs wall\n", w.name, t.samples, t.attempted, t.failed, time.Since(start).Seconds())
	return rep, nil
}

// wrongOutput is the error of a run whose requests were answered but whose
// answers fail an output check.
type wrongOutput struct{ err error }

func (w wrongOutput) Error() string { return "output check failed: " + w.err.Error() }

func wrong(w workload, err error) error {
	return fmt.Errorf("%s: %w", w.name, wrongOutput{err})
}

// matchDeclared checks that the run reports exactly the declared metrics,
// in their declared units, and no value JSON cannot carry.
func matchDeclared(got map[string]metric, want []declared) error {
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("declared metric %s was not measured", d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("metric %s measured in %q, declared in %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	if len(got) != len(want) {
		for name := range got {
			if !slices.ContainsFunc(want, func(d declared) bool { return d.Name == name }) {
				return fmt.Errorf("measured metric %s is not declared in BENCHMARK.json", name)
			}
		}
	}
	return nil
}

// checkPinned regenerates the workload's inputs at the pinned seed and
// compares their hash with the recorded one.
func checkPinned(w workload, cfg config, o options, in *inputs) error {
	b, err := os.ReadFile(filepath.Join(o.moddir, "inputs.json"))
	if err != nil {
		return err
	}
	var pin pinned
	if err := json.Unmarshal(b, &pin); err != nil {
		return fmt.Errorf("inputs.json: %v", err)
	}
	at := in
	if o.seed != pin.Seed {
		if at, err = makeInputs(w, cfg, pin.Seed); err != nil {
			return err
		}
	}
	if want := pin.Workloads[w.name]; at.sha256 != want {
		return fmt.Errorf("%s: inputs at seed %d hash to %s, inputs.json pins %s: the generator changed, so numbers no longer compare with earlier ones",
			w.name, pin.Seed, at.sha256, want)
	}
	return nil
}

func writePinned(o options) error {
	pin := pinned{Seed: o.seed, Workloads: map[string]string{}}
	for _, w := range workloads {
		in, err := makeInputs(w, defaultConfig(o.seconds), o.seed)
		if err != nil {
			return err
		}
		pin.Workloads[w.name] = in.sha256
	}
	b, err := json.MarshalIndent(pin, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.moddir, "inputs.json"), append(b, '\n'), 0o644)
}

// envInfo is where a set of runs was measured.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1min"`
}

func (e envInfo) String() string {
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s, %s, commit %s, loadavg %.2f",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.Commit, e.LoadAvg1)
}

func environment() envInfo {
	e := envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// A checkout that is not a git repository has no commit to name.
	if head, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		e.Commit = strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(e.Commit, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
				e.Commit = strings.TrimSpace(string(b))
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64) // unparseable reads as 0: no warning
		}
	}
	return e
}
