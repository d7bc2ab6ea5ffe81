// Command perfbench is witrack's benchmark. It drives one workload on
// inputs generated from a seed, times it end to end (or, with -trace 1,
// re-drives the same inputs serially with spans around every call into
// a layer), checks every output against a reference computed in the same
// process, and prints one JSON result as its last line of output.
//
// Usage (from the repository root, normally through perfbench/run.sh,
// which builds this program and witrack-svc first):
//
//	perfbench -workload sim-fast|sim-td|trace-int16|served-mixed|served-int16
//	          -seed n -seconds s -trace 0|1 -svc path -out dir
//
// The result line has the keys correct, attempted, failed and metrics;
// lines before it describe the host, the calibration kernel, sample
// counts and, for traced runs, where the spans were written.
//
// BENCHMARK.json runs served-mixed and served-int16. sim-fast, sim-td
// and trace-int16 run the same checks and print the same metrics, but
// their flat-out rate or millisecond lag tails follow how much CPU a
// small shared host grants from one minute to the next (on a 2-vCPU VM
// sim-fast swings between about 10k and 18k frames/s, and the in-process
// lag tails between 3 and 10 ms), so they serve for measurements by
// hand on a quiet machine, not as regression gates. The served
// workloads' lag is dominated by the trace codec's chunking, which the
// host does not move.
package main

import (
	"bufio"
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
	"strings"
	"syscall"
	"time"

	"witrack/internal/dsp"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	svcBin   string
	outDir   string
}

// Each run builds its inputs (and, for served-mixed, starts a daemon)
// several times; setup_s is the median. Cheap setups repeat until
// setupMinTotal is spent, so their median rests on enough samples.
const (
	setupMinReps  = 3
	setupMaxReps  = 15
	setupMinTotal = 1500 * time.Millisecond
)

// bench is one run's bookkeeping: the operation tally, the metrics, and
// notes explaining how each number was obtained.
type bench struct {
	opts      options
	attempted int
	failed    int
	e2e       metricSet
	layer     metricSet
	notes     map[string]any
}

// check counts one verified operation; a non-nil err marks it failed.
func (b *bench) check(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Printf("perfbench: FAILED %s: %v\n", what, err)
	}
}

// note records how a reported number was obtained.
func (b *bench) note(key string, v any) { b.notes[key] = v }

// another reports whether one more round, as long as the mean of the
// rounds so far, still fits in the measurement window that began at
// start. Two rounds always run, so every phase has a repeat.
func (b *bench) another(start time.Time, rounds int) bool {
	if rounds < 2 {
		return true
	}
	el := time.Since(start)
	return el+el/time.Duration(rounds) <= time.Duration(b.opts.seconds*float64(time.Second))
}

func main() {
	var opts options
	var traceFlag int
	flag.StringVar(&opts.workload, "workload", "", "workload: sim-fast, sim-td, trace-int16, served-mixed or served-int16")
	flag.Int64Var(&opts.seed, "seed", 1, "workload seed")
	flag.Float64Var(&opts.seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds the traced per-layer run")
	flag.StringVar(&opts.svcBin, "svc", "", "witrack-svc binary (served-mixed)")
	flag.StringVar(&opts.outDir, "out", ".", "directory for span files")
	flag.Parse()
	if flag.NArg() != 0 || (traceFlag != 0 && traceFlag != 1) || opts.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	opts.trace = traceFlag == 1
	b := &bench{opts: opts, e2e: metricSet{}, layer: metricSet{}, notes: map[string]any{}}

	var run func(*bench) error
	switch opts.workload {
	case "sim-fast":
		run = func(b *bench) error { return runSim(b, false) }
	case "sim-td":
		run = func(b *bench) error { return runSim(b, true) }
	case "trace-int16":
		run = runTraceInt16
	case "served-mixed", "served-int16":
		run = runServed
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", opts.workload)
		os.Exit(2)
	}

	stampHost(b)
	if err := run(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	metrics := b.e2e
	if opts.trace {
		metrics = b.layer
	}
	if err := requireMetrics(metrics, opts.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	notes, err := json.Marshal(b.notes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("perfbench: notes %s\n", notes)
	out, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, b.attempted, b.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// endToEnd and perLayer are the metric names every run of the matching
// mode must print, and units their units. BENCHMARK.json publishes the
// same names and units; TestBenchmarkFileMatches keeps the two in step.
var (
	endToEnd = []string{"fps", "capture_fps", "lag_p50_ms", "lag_p99_ms", "setup_s", "peak_rss_mb"}
	perLayer = []string{
		"fmcw.sweep_synth_us", "fmcw.spectral_synth_us", "dsp.frame_fft_us",
		"trace.decode_us", "trace.encode_us", "trace.bytes_per_frame", "trace.decode_allocs_per_frame",
		"track.push_us", "locate.solve_us",
		"core.source_busy_frac", "core.source_blocked_frac", "core.allocs_per_frame", "core.gc_cpu_frac",
		"core.batch_coalesced_frac", "core.batch_overhead_us",
		"scenario.compile_ms",
		"svc.first_fix_ms", "svc.ingest_mb_per_s", "svc.gen_late_p99_ms", "svc.sessions_failed",
	}
	units = map[string]string{
		"fps": "frames/s", "capture_fps": "frames/s", "lag_p50_ms": "ms", "lag_p99_ms": "ms",
		"setup_s": "s", "peak_rss_mb": "MB",

		"fmcw.sweep_synth_us": "us", "fmcw.spectral_synth_us": "us", "dsp.frame_fft_us": "us",
		"trace.decode_us": "us", "trace.encode_us": "us", "trace.bytes_per_frame": "count",
		"trace.decode_allocs_per_frame": "count", "track.push_us": "us", "locate.solve_us": "us",
		"core.source_busy_frac": "ratio", "core.source_blocked_frac": "ratio", "core.allocs_per_frame": "count",
		"core.gc_cpu_frac": "ratio", "core.batch_coalesced_frac": "ratio", "core.batch_overhead_us": "us",
		"scenario.compile_ms": "ms", "svc.first_fix_ms": "ms", "svc.ingest_mb_per_s": "MB/s",
		"svc.gen_late_p99_ms": "ms", "svc.sessions_failed": "count",
	}
)

// requireMetrics fails a run that forgot a metric or reported one that
// is not in the published list.
func requireMetrics(m metricSet, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(m) != len(want) {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		return fmt.Errorf("reported metrics %v, want %v", names, want)
	}
	for _, name := range want {
		if _, ok := m[name]; !ok {
			return fmt.Errorf("metric %q missing", name)
		}
	}
	return nil
}

// putLayer reports a per-layer metric and notes the workload it came
// from and, for numbers computed from other spans rather than timed
// directly, that it is derived (or that this workload bypasses the
// layer).
func (b *bench) putLayer(name string, v float64, how string) error {
	if err := b.layer.put(name, v); err != nil {
		return err
	}
	b.note("layer."+name, b.opts.workload+": "+how)
	return nil
}

// stampHost records what a result must be read against: the machine,
// the toolchain, the source and the seed, plus a fixed calibration
// kernel so a noisy neighbour shows up when two sets of runs disagree.
func stampHost(b *bench) {
	b.note("workload", b.opts.workload)
	b.note("seed", b.opts.seed)
	b.note("seconds", b.opts.seconds)
	b.note("nproc", runtime.NumCPU())
	b.note("gomaxprocs", runtime.GOMAXPROCS(0))
	b.note("cpu_model", cpuModel())
	b.note("go_version", runtime.Version())
	b.note("source", sourceDigest())
	b.note("calibration_rfft_batch_us", calibrate())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the code under test: a SHA-256 over every Go
// source and module file of the checkout (paths and contents, in path
// order). The benchmark's checkout need not be a git repository, so
// this stands in for the commit.
func sourceDigest() string {
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return fmt.Sprintf("sha256:%s (%d files)", hex.EncodeToString(h.Sum(nil))[:16], len(paths))
}

// calibrate times a fixed dsp.Plan.RFFTBatch (the paper radio's frame:
// 5 sweeps of 2500 samples through a 4096-point plan) and returns the
// median µs per call. It is a host reading, not a metric.
func calibrate() float64 {
	const sweeps, samples, reps = 5, 2500, 60
	plan := dsp.PlanFor(4096)
	win := dsp.Hann(samples)
	in := make([][]float64, sweeps)
	for i := range in {
		in[i] = make([]float64, samples)
		for j := range in[i] {
			in[i][j] = float64((i*samples+j)%97) - 48
		}
	}
	var dst []complex128
	times := make([]float64, 0, reps)
	for r := 0; r < reps+10; r++ {
		start := time.Now()
		dst = plan.RFFTBatch(dst, in, win)
		if r >= 10 {
			times = append(times, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	return median(times)
}

// selfPeakRSSMB is this process's peak resident set size in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
