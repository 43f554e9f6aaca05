// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One process runs one named workload from one seed through
// the simulator's public API, checks every simulated day of output, and
// prints one JSON object as its last line of standard output:
//
//	go run . -workload paper-agents -seed 1 -seconds 30 -trace 0
//
// -trace 0 reports the end-to-end metrics (untraced, timed run); -trace 1
// runs the same workload under a CPU profile, runtime/metrics sampling and
// in-memory spans, and reports the per-layer metrics instead. -verify runs
// the reference oracle over every workload and exits non-zero on any
// mismatch, and -days fixes the simulated span instead of -seconds. See README.md for the workloads, metrics and steadiness
// evidence.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*outcome, error){
	"paper-agents":    runPaperAgents,
	"megasite-manual": runMegasiteManual,
	"after-small":     runAfterSmall,
}

// config is one run's parameters. The zero values of the override fields
// select the benchmark's defaults; the package tests shrink them to
// smoke-test sizes.
type config struct {
	seed    uint64
	seconds float64
	traced  bool
	// fixedDays, when > 0, simulates exactly this many days (or, for the
	// campaign workload, rounds) instead of running for seconds. Traced
	// runs default to a fixed span so their exact counts repeat; the
	// -days flag sets it for untraced runs too, to measure the tracing
	// overhead over the same span.
	fixedDays int
	// setupBatches and setupPerBatch override the set-up repetition.
	setupBatches, setupPerBatch int
	// trialDays overrides the campaign workload's trial span.
	trialDays int
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "timed-phase length in wall seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	days := flag.Int("days", 0, "simulate exactly this many days (campaign rounds for after-small) instead of -seconds")
	verify := flag.Bool("verify", false, "run the reference oracle on every workload and exit")
	flag.Parse()
	if *verify {
		if err := verifyAll(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench verify:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench verify: all workloads match their reference paths")
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n",
			*workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace %d: want 0 or 1\n", *traceFlag)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, fixedDays: *days}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *workload, err)
		os.Exit(1)
	}
	out.report(os.Stderr, *workload)
	res := result{
		Correct:   out.correct(),
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.endToEnd(),
	}
	if cfg.traced {
		res.Metrics = out.perLayer()
		if out.prof != nil {
			fmt.Fprintln(os.Stderr, "perfbench: hottest leaf functions (share of sampled CPU):")
			for _, l := range out.prof.topLeaves(12) {
				fmt.Fprintln(os.Stderr, "  "+l)
			}
		}
		if err := out.spans.write(fmt.Sprintf(".bench_build/spans/%s-seed%d.json", *workload, *seed)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// outcome is everything one workload run measured.
type outcome struct {
	attempted, failed int
	// knownFaultDays counts days on seed-derived inputs that showed the
	// named liveness fault (a service Running with none of its processes
	// after its host was repaired). They depend on the seed, so they are
	// reported apart from failed; see README.md.
	knownFaultDays int
	problems       []string // run-level check failures: correct=false
	logged         int      // check messages seen (the first few are printed)

	simDays    float64       // simulated days in the timed phase
	timedWall  time.Duration // wall time of the timed phase
	hourMS     []float64     // wall time of every simulated hour, ms
	setupS     []float64     // per-assembly set-up seconds, one per batch
	allocBytes uint64        // heap bytes allocated in the timed phase

	layers map[string]float64 // per-layer counters, filled by the workload
	spans  *spanLog
	rt     rtDelta
	prof   *profileSplit
}

func newOutcome(traced bool) *outcome {
	o := &outcome{layers: map[string]float64{}}
	if traced {
		o.spans = &spanLog{}
	}
	return o
}

func (o *outcome) correct() bool { return len(o.problems) == 0 }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// report prints a human-readable summary to w (standard error), so the
// last line of standard output stays the JSON result.
func (o *outcome) report(w *os.File, workload string) {
	fmt.Fprintf(w, "perfbench %s: %d days attempted, %d failed, %d known-fault days on seed-derived inputs, %.1f simulated days in %.2fs\n",
		workload, o.attempted, o.failed, o.knownFaultDays, o.simDays, o.timedWall.Seconds())
	for i, p := range o.problems {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more\n", len(o.problems)-i)
			break
		}
		fmt.Fprintln(w, "  check:", p)
	}
}

// endToEnd computes the end-to-end metrics of an untraced run.
func (o *outcome) endToEnd() map[string]metric {
	return map[string]metric{
		"sim_days_per_s":      {o.simDays / o.timedWall.Seconds(), "simday/s"},
		"simhour_ms_p50":      {quantile(o.hourMS, 0.5), "ms"},
		"simhour_ms_p90":      {quantile(o.hourMS, 0.9), "ms"},
		"setup_s":             {quantile(o.setupS, 0.5), "s"},
		"max_rss_mb":          {maxRSSMB(), "MB"},
		"alloc_mb_per_simday": {float64(o.allocBytes) / (1 << 20) / o.simDays, "MB"},
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// maxRSSMB reports this process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapAllocBytes reads the cumulative heap allocation counter, which is
// cheap enough to read around the timed phase of every run.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// measure runs one timed section of a workload and adds its wall time,
// heap allocation and runtime counters to the outcome.
func (o *outcome) measure(fn func() error) error {
	rt0 := readRuntime()
	a0 := heapAllocBytes()
	t0 := time.Now()
	err := fn()
	o.timedWall += time.Since(t0)
	o.allocBytes += heapAllocBytes() - a0
	o.rt = o.rt.add(readRuntime().sub(rt0))
	return err
}

// profile runs fn under a CPU profile when the run is traced.
func (o *outcome) profile(fn func() error) error {
	if o.spans == nil {
		return fn()
	}
	stop, err := startProfile()
	if err != nil {
		return err
	}
	err = fn()
	var perr error
	o.prof, perr = stop()
	if err == nil {
		err = perr
	}
	return err
}

// perLayer computes the per-layer metrics of a traced run. A ratio whose
// base is zero (no probes on an agents site, no campaign on a single
// site) reads 0.
func (o *outcome) perLayer() map[string]metric {
	L, d := o.layers, o.simDays
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	cpuNS := func(names ...string) float64 {
		if o.prof == nil {
			return 0
		}
		var ns int64
		for _, n := range names {
			ns += o.prof.self[n]
		}
		return float64(ns)
	}
	var hourNS float64
	for _, ms := range o.hourMS {
		hourNS += ms * 1e6
	}
	m := map[string]metric{
		"qoscluster.newsite_ms":            {o.spans.medianMS("NewSite"), "ms"},
		"qoscluster.deploy_ms":             {o.spans.medianMS("Site.Run(deploy)"), "ms"},
		"qoscluster.reset_ms":              {o.spans.medianMS("Site.Reset"), "ms"},
		"qoscluster.report_ms":             {o.spans.medianMS("Site.Report"), "ms"},
		"campaign.trial_s_p50":             {o.spans.medianMS("trial") / 1000, "s"},
		"campaign.busy_pct":                {100 * ratio(L["campaign.serial_ns"], L["campaign.capacity_ns"]), "%"},
		"simclock.events_per_simday":       {ratio(L["events"], d), "1/simday"},
		"simclock.ns_per_event":            {ratio(hourNS, L["events"]), "ns"},
		"agent.runs_per_simday":            {ratio(L["agent.runs"], d), "1/simday"},
		"agent.findings_per_simday":        {ratio(L["agent.findings"], d), "1/simday"},
		"agent.heals_per_simday":           {ratio(L["agent.heals"], d), "1/simday"},
		"agent.escalations_per_simday":     {ratio(L["agent.escalations"], d), "1/simday"},
		"agent.skipped_lock_per_simday":    {ratio(L["agent.skipped_lock"], d), "1/simday"},
		"agent.heals_per_detected":         {ratio(L["agent.heals"], L["agent.detected"]), "ratio"},
		"agent.us_per_run":                 {ratio(cpuNS(agentFamily...), L["agent.runs"]) / 1e3, "us"},
		"probe.probes_per_simday":          {ratio(L["probe.probes"], d), "1/simday"},
		"probe.batches_per_simday":         {ratio(L["probe.batches"], d), "1/simday"},
		"probe.fail_ratio":                 {ratio(L["probe.fails"], L["probe.probes"]), "ratio"},
		"probe.ns_per_probe":               {ratio(cpuNS("probe"), L["probe.probes"]), "ns"},
		"lsf.jobs_done_per_simday":         {ratio(L["lsf.jobs_done"], d), "1/simday"},
		"lsf.jobs_failed_per_simday":       {ratio(L["lsf.jobs_failed"], d), "1/simday"},
		"faultinject.incidents_per_simday": {ratio(L["faultinject.incidents"], d), "1/simday"},
		"netsim.msgs_per_simday":           {ratio(L["netsim.msgs"], d), "1/simday"},
		"netsim.bytes_per_simday":          {ratio(L["netsim.bytes"], d), "B/simday"},
		"adminsrv.resubmissions":           {L["adminsrv.resubmissions"], "count"},
		"runtime.allocs_per_simday":        {ratio(o.rt.allocObjects, d), "1/simday"},
		"runtime.gc_cycles_per_simday":     {ratio(o.rt.gcCycles, d), "1/simday"},
		"runtime.gc_cpu_pct":               {100 * ratio(o.rt.gcCPU, o.rt.totalCPU), "%"},
		"runtime.heap_peak_mb":             {L["runtime.heap_peak"] / (1 << 20), "MB"},
		"runtime.bg_pct":                   {o.prof.pct(""), "%"},
		"perfbench.traced_sim_days_per_s":  {ratio(d, o.timedWall.Seconds()), "simday/s"},
	}
	for _, l := range layers {
		m[l+".self_pct"] = metric{o.prof.pct(l), "%"}
	}
	return m
}
