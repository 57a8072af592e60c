// Command benchmark measures the DPI service as it is deployed: it builds
// the real dpictl, mboxd and dpinstance binaries, runs them as separate
// processes on loopback, drives them from one in-process load generator
// over one wire connection, checks every result against an oracle, and
// prints every metric by name with its unit. See README.md.
//
// Usage (from the repository root):
//
//	go run -C benchmark . [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	go run -C benchmark . -list
//	go run -C benchmark . -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// header records where a result file came from.
type header struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Link       string  `json:"link"`
	Seconds    float64 `json:"seconds"`
	When       string  `json:"when"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four)")
		seed         = flag.Int64("seed", 1, "traffic seed: the same seed gives the same packets")
		seconds      = flag.Float64("seconds", 12, "measuring time per workload, split over the phases")
		traceMode    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics (layer replay + traced run)")
		out          = flag.String("out", "", "write the full result (slices, sample counts, digests, spans) to this JSON file")
		list         = flag.Bool("list", false, "print every workload and metric name with unit and direction, then exit")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments; non-zero exit on a regression")
		nullServer   = flag.String("null-server", "", "internal: serve bare forwarding on this UDP address until SIGTERM (the traced run starts it)")
	)
	flag.Parse()
	switch {
	case *nullServer != "":
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		if err := serveNull(*nullServer, stop); err != nil {
			fatalf("%v", err)
		}
		return
	case *list:
		printList(os.Stdout)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare needs two result files")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	// Generator and instance each need a core of their own, or the numbers
	// measure the scheduler.
	if runtime.NumCPU() < 2 {
		fatalf("refusing to run on %d CPU: the load generator and the instance need a core each", runtime.NumCPU())
	}
	names := []string{*workloadName}
	if *workloadName == "" {
		names = names[:0]
		for _, s := range workloadSpecs {
			names = append(names, s.Name)
		}
	}

	root, err := findRoot()
	if err != nil {
		fatalf("%v", err)
	}
	work := filepath.Join(root, ".bench_build", "dpibench")
	f := &fleet{binDir: filepath.Join(work, "bin"), logDir: filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))}
	if err := os.MkdirAll(f.logDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	// An interrupt must not leave daemons behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		f.stopAll()
		os.Exit(130)
	}()
	if err := buildDaemons(root, f.binDir); err != nil {
		fatalf("%v", err)
	}
	if f.place, err = planPlacement(); err != nil {
		fmt.Printf("CPU placement unavailable (%v): running unpinned\n", err)
	}

	file := resultFile{Header: header{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit(root), Link: "loopback", Seconds: *seconds, When: time.Now().UTC().Format(time.RFC3339),
	}}
	fmt.Printf("dpiservice benchmark: %s, %d CPUs, GOMAXPROCS %d, commit %s, traffic over the host loopback\n",
		file.Header.GoVersion, file.Header.NumCPU, file.Header.GOMAXPROCS, file.Header.Commit)

	var last *workloadResult
	for _, name := range names {
		w, err := buildWorkload(name, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("\n== %s (seed %d, digest %s)\n   %s\n", w.Name, w.Seed, w.Digest, w.Why)
		res, err := runWorkload(f, w, *seconds, *traceMode == 1)
		f.stopAll()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			f.dumpLogs(os.Stderr)
			os.Exit(1)
		}
		printResult(res)
		file.Workloads = append(file.Workloads, res)
		last = res
	}
	os.RemoveAll(f.logDir)

	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatalf("write %s: %v", *out, err)
		}
	}
	// The driver reads the last line: one JSON object.
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]measurement `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, make(map[string]measurement)}
	for k, m := range last.Metrics {
		line.Metrics[k] = measurement{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("\n%s\n", data)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// commit names the checkout's commit; the driver's checkouts are not git
// repositories, so "unknown" is a normal answer.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runWorkload runs one workload in the chosen mode.
func runWorkload(f *fleet, w *workload, seconds float64, traced bool) (*workloadResult, error) {
	if !traced {
		return runUntraced(f, w, seconds)
	}
	res := &workloadResult{
		Name: w.Name, Why: w.Why, Seed: w.Seed, Digest: w.Digest, PacedPPS: w.PacedPPS,
		Traced: true, Metrics: make(map[string]measurement),
	}
	log := &spanLog{}
	parts, err := replayLayers(w, res, log)
	if err != nil {
		return nil, err
	}
	if err := runNullServer(f, w, seconds, res); err != nil {
		return nil, err
	}
	instCPU, err := runTracedE2E(f, w, seconds, res, log)
	if err != nil {
		return nil, err
	}
	put := func(name string, v float64) { res.put(layerMetrics, name, v, nil, 0) }
	wireSum := parts.codec + parts.endpoint + parts.syscall
	sum := wireSum + parts.inspect + parts.encode
	put("ledger.layers_sum_ns_per_pkt", sum)
	put("ledger.wire_share_pct", 100*wireSum/sum)
	put("ledger.scan_share_pct", 100*parts.inspect/sum)
	put("ledger.residual_pct", 100*(instCPU-sum)/instCPU)
	res.Spans = log.spans
	fmt.Printf("  instance CPU at untraced saturation: %.0f ns/pkt; replayed layers explain %.0f ns of it\n", instCPU, sum)
	return res, nil
}

// printResult prints every metric of a result by name with its unit,
// its slices and its sample count.
func printResult(res *workloadResult) {
	spec := e2eMetrics
	if res.Traced {
		spec = layerMetrics
	}
	for _, m := range spec {
		v, ok := res.Metrics[m.Name]
		if !ok {
			fatalf("%s: metric %s was not measured", res.Name, m.Name)
		}
		line := fmt.Sprintf("  %-34s %14.4f %-7s", m.Name, v.Value, v.Unit)
		if len(v.Slices) > 0 {
			var parts []string
			for _, s := range v.Slices {
				parts = append(parts, fmt.Sprintf("%.4g", s))
			}
			line += " slices [" + strings.Join(parts, " ") + "]"
		}
		if v.Samples > 0 {
			line += fmt.Sprintf(" n=%d", v.Samples)
		}
		fmt.Println(line)
	}
	var extra []string
	for k := range res.Metrics {
		if _, ok := specByName(spec, k); !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		fatalf("%s: metrics outside the contract: %v", res.Name, extra)
	}
	t := res.Tally
	fmt.Printf("  packets attempted %d, failed %d (missing %d, oracle mismatches %d, undelivered verdicts %d): fail_pct %.4f; %.1f%% of corpus packets report matches\n",
		t.Attempted, t.failed(), t.Missing, t.Mismatched, t.Undelivered, t.failPct(), res.MatchPct)
}
