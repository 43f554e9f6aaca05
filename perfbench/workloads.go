package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	qoscluster "repro"
	"repro/experiments"
	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// maxLogged bounds the check messages a run prints to standard error.
const maxLogged = 5

// assemble times set-up: batches × perBatch fresh sites, each built with
// NewSite and deployed by a first Run to a 1-ns horizon. One batch's
// per-assembly mean is one set-up sample, so sub-millisecond assemblies
// are timed over many repetitions. It returns the last site built.
func (o *outcome) assemble(batches, perBatch int, build func() (*qoscluster.Site, error)) (*qoscluster.Site, error) {
	var site *qoscluster.Site
	for b := 0; b < batches; b++ {
		site = nil
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			sp := o.spans.begin("NewSite", -1)
			s, err := build()
			o.spans.end(sp)
			if err != nil {
				return nil, err
			}
			sp = o.spans.begin("Site.Run(deploy)", -1)
			err = s.Run(1)
			o.spans.end(sp)
			if err != nil {
				return nil, err
			}
			site = s
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds()/float64(perBatch))
	}
	return site, nil
}

// dayLog accumulates what one site's simulated days produced.
type dayLog struct {
	hourMS   []float64
	verdicts []dayVerdict
}

// runDay advances a site through simulated day `day` (1-based) one hour
// at a time, timing each Run call, then checks the day's output. atHour,
// when non-nil, sees the site after every hour.
func (l *dayLog) runDay(site *qoscluster.Site, day int, spans *spanLog, parent int, peak *heapPeak,
	atHour func(simclock.Time)) error {
	start := simclock.Time(day-1) * simclock.Day
	for h := 1; h <= 24; h++ {
		until := start + simclock.Time(h)*simclock.Hour
		sp := spans.begin("Site.Run", parent)
		t0 := time.Now()
		err := site.Run(until)
		l.hourMS = append(l.hourMS, float64(time.Since(t0))/1e6)
		spans.end(sp)
		if err != nil {
			return err
		}
		peak.sample()
		if atHour != nil {
			atHour(until)
		}
	}
	sp := spans.begin("Site.Report", parent)
	rep := site.Report()
	spans.end(sp)
	l.verdicts = append(l.verdicts, checkDay(site, rep))
	return nil
}

// tally folds a site's day verdicts into the outcome. canary marks the
// fixed-input trial on which the named fault counts as failed.
func (o *outcome) tally(l *dayLog, canary bool, who string) {
	for i, v := range l.verdicts {
		o.attempted++
		if v.failedDay(canary) {
			o.failed++
		}
		if !canary && len(v.knownFault) > 0 {
			o.knownFaultDays++
		}
		for _, msg := range append(append([]string(nil), v.other...), v.knownFault...) {
			if o.logged < maxLogged {
				fmt.Fprintf(os.Stderr, "perfbench: %s day %d: %s\n", who, i+1, msg)
			}
			o.logged++
		}
	}
	o.hourMS = append(o.hourMS, l.hourMS...)
	o.simDays += float64(len(l.verdicts))
}

// siteCounters adds a site's layer counters to the outcome; concurrent
// campaign trials call it under their runner's lock. fired0 is the event
// count before the measured span.
func (o *outcome) siteCounters(site *qoscluster.Site, rep qoscluster.Report, fired0 uint64) {
	L := o.layers
	L["events"] += float64(site.Sim.Fired() - fired0)
	for _, a := range site.Agents {
		c := a.Counters()
		L["agent.runs"] += float64(c.Runs)
		L["agent.findings"] += float64(c.Findings)
		L["agent.heals"] += float64(c.Healed)
		L["agent.escalations"] += float64(c.Escalated)
		L["agent.skipped_lock"] += float64(c.SkippedLock)
	}
	for _, inc := range site.Ledger.Incidents() {
		if inc.DetectedBy == "intelliagent" {
			L["agent.detected"]++
		}
	}
	if site.Probes != nil {
		L["probe.probes"] += float64(site.Probes.Probes())
		L["probe.batches"] += float64(site.Probes.Batches())
		L["probe.fails"] += float64(site.Probes.Fails())
	}
	L["lsf.jobs_done"] += float64(rep.JobsDone)
	L["lsf.jobs_failed"] += float64(rep.JobsFailed)
	L["faultinject.incidents"] += float64(len(site.Ledger.Incidents()))
	pub := site.Public.Stats()
	L["netsim.msgs"] += float64(pub.Sent)
	L["netsim.bytes"] += float64(pub.Bytes)
	if site.Private != nil {
		priv := site.Private.Stats()
		L["netsim.msgs"] += float64(priv.Sent)
		L["netsim.bytes"] += float64(priv.Bytes)
	}
	L["adminsrv.resubmissions"] += float64(rep.Resubmitted)
}

// singleSite describes a workload that runs one site for the whole run.
type singleSite struct {
	topo       qoscluster.Topology
	mode       qoscluster.Mode
	reference  qoscluster.Option // the program's reference path for the oracle
	oracleSpan simclock.Time     // hour-aligned, at most one day
	batches    int               // set-up batches
	perBatch   int               // assemblies per set-up batch
	tracedDays int               // fixed span of a traced run
	minHours   int               // least simulated hours of a timed run
}

func runPaperAgents(cfg config) (*outcome, error) {
	return runSingleSite(cfg, singleSite{
		topo: qoscluster.PaperTopology(), mode: qoscluster.ModeAgents,
		reference: qoscluster.WithReferenceScheduler(), oracleSpan: 6 * simclock.Hour,
		batches: 9, perBatch: 10, tracedDays: 5, minHours: 100,
	})
}

func runMegasiteManual(cfg config) (*outcome, error) {
	topo, ok := qoscluster.ResolveTopology("megasite")
	if !ok {
		return nil, fmt.Errorf("megasite topology is not registered")
	}
	return runSingleSite(cfg, singleSite{
		topo: topo, mode: qoscluster.ModeManual,
		reference: qoscluster.WithReferenceProbes(), oracleSpan: simclock.Day,
		batches: 9, perBatch: 1, tracedDays: 60, minHours: 100,
	})
}

// runSingleSite assembles the site (timed as set-up), computes the
// reference report at the oracle span, then advances the site hour by
// hour for the timed phase, checking every day.
func runSingleSite(cfg config, w singleSite) (*outcome, error) {
	out := newOutcome(cfg.traced)
	opts := []qoscluster.Option{qoscluster.WithSeed(cfg.seed), qoscluster.WithMode(w.mode)}
	batches, perBatch := w.batches, w.perBatch
	if cfg.setupBatches > 0 {
		batches, perBatch = cfg.setupBatches, cfg.setupPerBatch
	}
	site, err := out.assemble(batches, perBatch, func() (*qoscluster.Site, error) {
		return qoscluster.NewSite(w.topo, opts...)
	})
	if err != nil {
		return nil, err
	}

	want, err := referenceReport(w.topo, append(opts, w.reference), w.oracleSpan)
	if err != nil {
		return nil, err
	}
	oracle := func(until simclock.Time) {
		if until != w.oracleSpan {
			return
		}
		if got, _ := json.Marshal(site.Report()); !bytes.Equal(got, want) {
			out.problem("oracle: report at %v differs from the reference path:\n got %s\nwant %s", until, got, want)
		}
	}

	days := cfg.fixedDays
	if days == 0 && cfg.traced {
		days = w.tracedDays
	}
	var peak *heapPeak
	if cfg.traced {
		peak = &heapPeak{}
	}
	var log dayLog
	fired0 := site.Sim.Fired()
	runtime.GC()
	err = out.profile(func() error {
		return out.measure(func() error {
			t0 := time.Now()
			for day := 1; ; day++ {
				if err := log.runDay(site, day, out.spans, -1, peak, oracle); err != nil {
					return err
				}
				if days > 0 {
					if day >= days {
						return nil
					}
				} else if time.Since(t0).Seconds() >= cfg.seconds && len(log.hourMS) >= w.minHours {
					return nil
				}
			}
		})
	})
	if err != nil {
		return nil, err
	}
	out.tally(&log, false, fmt.Sprintf("seed %d", cfg.seed))
	out.siteCounters(site, site.Report(), fired0)
	if peak != nil {
		out.layers["runtime.heap_peak"] = float64(peak.peak)
	}
	return out, nil
}

// referenceReport runs a fresh site on the program's reference path to
// the given time in one Run call and returns its report as JSON.
func referenceReport(topo qoscluster.Topology, opts []qoscluster.Option, until simclock.Time) ([]byte, error) {
	ref, err := qoscluster.NewSite(topo, opts...)
	if err != nil {
		return nil, fmt.Errorf("reference site: %w", err)
	}
	if err := ref.Run(until); err != nil {
		return nil, fmt.Errorf("reference site: %w", err)
	}
	return json.Marshal(ref.Report())
}

// canarySeed is the campaign CLI's default seed. Its small-site agents
// trial shows the named liveness fault from simulated day 4 (FEED-002 on
// tx002), so every campaign round includes it as its fixed-input trial.
const canarySeed = 7

// trialRec is what one campaign trial of the benchmark's runner recorded.
type trialRec struct {
	log      dayLog
	downtime float64 // agents-mode downtime_h/total
}

// campaignRun is the after-small workload's state across rounds.
type campaignRun struct {
	out  *outcome
	days int
	peak *heapPeak
	mu   sync.Mutex
	recs map[int]*trialRec // current round, by trial index
}

func newCampaignRun(out *outcome, days int) *campaignRun {
	return &campaignRun{out: out, days: days, recs: map[int]*trialRec{}}
}

// runFunc is the campaign trial function: a ReuseRunner that builds,
// resets and runs small-site trials through the benchmark's checks.
func (c *campaignRun) runFunc() campaign.RunFunc {
	return campaign.ReuseRunner[*qoscluster.Site]{Build: c.build, Reset: c.reset, Run: c.run}.RunFunc()
}

func runAfterSmall(cfg config) (*outcome, error) {
	out := newOutcome(cfg.traced)
	batches, perBatch := 9, 200
	if cfg.setupBatches > 0 {
		batches, perBatch = cfg.setupBatches, cfg.setupPerBatch
	}
	if _, err := out.assemble(batches, perBatch, func() (*qoscluster.Site, error) {
		return qoscluster.NewSite(qoscluster.SmallTopology(),
			qoscluster.WithSeed(cfg.seed), qoscluster.WithMode(qoscluster.ModeAgents))
	}); err != nil {
		return nil, err
	}

	days := 7
	if cfg.trialDays > 0 {
		days = cfg.trialDays
	}
	c := newCampaignRun(out, days)
	if cfg.traced {
		c.peak = &heapPeak{}
	}
	runFunc := c.runFunc()

	workers := runtime.NumCPU()
	trials := 2 * workers
	rounds := cfg.fixedDays
	if rounds == 0 && cfg.traced {
		rounds = 6
	}
	var first *campaign.Result
	var agentsSum, manualSum float64
	notBelow := 0
	runtime.GC()
	err := out.profile(func() error {
		for r := 0; ; r++ {
			// Seed-derived trials start past the canary and never repeat.
			base := canarySeed + 1 + cfg.seed*100_000 + uint64(r*(trials-1))
			m, err := experiments.CampaignMatrix("after", experiments.Config{
				Seed: base, Days: c.days, Sites: []string{"small"}}, trials-1)
			if err != nil {
				return err
			}
			m.Seeds = append([]uint64{canarySeed}, m.Seeds...)
			c.recs = map[int]*trialRec{}
			var res *campaign.Result
			sp := out.spans.begin("campaign.Run", -1)
			err = out.measure(func() error {
				var err error
				res, err = campaign.Run("after", m, workers, runFunc)
				return err
			})
			out.spans.end(sp)
			if err != nil {
				return err
			}
			if first == nil {
				first = res
			}
			c.roundCounters(res, workers)
			for _, tr := range res.Errs() {
				out.problem("trial %d (seed %d): %s", tr.Trial.Index, tr.Trial.Seed, tr.Err)
			}
			for _, msg := range checkAggregates(res, "downtime_h/total") {
				out.problem("aggregate: %s", msg)
			}
			// The manual-mode baseline runs untimed, on the same seeds and span.
			for _, t := range res.Trials {
				rec := c.recs[t.Trial.Index]
				if rec == nil {
					continue
				}
				out.tally(&rec.log, t.Trial.Seed == canarySeed, fmt.Sprintf("trial seed %d", t.Trial.Seed))
				manual, err := manualDowntime(t.Trial.Seed, c.days)
				if err != nil {
					return err
				}
				agentsSum += rec.downtime
				manualSum += manual
				if rec.downtime >= manual && manual > 0 {
					notBelow++
				}
			}
			if rounds > 0 {
				if r+1 >= rounds {
					return nil
				}
			} else if out.timedWall.Seconds() >= cfg.seconds {
				return nil
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if c.peak != nil {
		out.layers["runtime.heap_peak"] = float64(c.peak.peak)
	}
	fmt.Fprintf(os.Stderr, "perfbench after-small: agents downtime %.2f h vs manual %.2f h over the same seeds and spans; %d trials with manual downtime had agents downtime not below it\n",
		agentsSum, manualSum, notBelow)
	if agentsSum > manualSum || (manualSum > 0 && agentsSum == manualSum) {
		out.problem("agents-mode downtime %.2f h is not below manual-mode %.2f h over the run's trials", agentsSum, manualSum)
	}

	// Oracle: the first round again on the program's reference path, at
	// one worker, must give byte-identical campaign JSON.
	ref, err := campaign.Run("after", first.Matrix, 1, experiments.ReferenceRunTrial)
	if err != nil {
		return nil, err
	}
	if msg := sameJSON(first, ref); msg != "" {
		out.problem("oracle: benchmark campaign at %d workers vs reference at 1 worker: %s", workers, msg)
	}
	return out, nil
}

// sameJSON compares two campaign results' canonical JSON and describes
// the first difference ("" when identical).
func sameJSON(a, b *campaign.Result) string {
	ja, err := a.JSON()
	if err != nil {
		return err.Error()
	}
	jb, err := b.JSON()
	if err != nil {
		return err.Error()
	}
	if bytes.Equal(ja, jb) {
		return ""
	}
	i := 0
	for i < len(ja) && i < len(jb) && ja[i] == jb[i] {
		i++
	}
	lo := max(0, i-80)
	return fmt.Sprintf("differ at byte %d: %q vs %q", i, ja[lo:min(len(ja), i+80)], jb[lo:min(len(jb), i+80)])
}

func (c *campaignRun) build(t campaign.Trial) (*qoscluster.Site, error) {
	sp := c.out.spans.begin("NewSite", -1)
	defer c.out.spans.end(sp)
	return qoscluster.NewSite(qoscluster.SmallTopology(),
		qoscluster.WithMode(qoscluster.ModeAgents), qoscluster.WithSeed(t.Seed))
}

func (c *campaignRun) reset(s *qoscluster.Site, t campaign.Trial) error {
	sp := c.out.spans.begin("Site.Reset", -1)
	defer c.out.spans.end(sp)
	return s.Reset(t.Seed)
}

// run is the campaign trial: deploy, then every simulated day hour by
// hour with the day checks, then the campaign's year metrics.
func (c *campaignRun) run(s *qoscluster.Site, t campaign.Trial) (map[string]float64, error) {
	sp := c.out.spans.begin("trial", -1)
	defer c.out.spans.end(sp)
	fired0 := s.Sim.Fired()
	dsp := c.out.spans.begin("Site.Run(deploy)", sp)
	err := s.Run(1)
	c.out.spans.end(dsp)
	if err != nil {
		return nil, err
	}
	rec := &trialRec{}
	for day := 1; day <= c.days; day++ {
		if err := rec.log.runDay(s, day, c.out.spans, sp, c.peak, nil); err != nil {
			return nil, err
		}
	}
	rsp := c.out.spans.begin("Site.Report", sp)
	rep := s.Report()
	c.out.spans.end(rsp)
	rec.downtime = rep.Total.Hours()
	c.mu.Lock()
	c.recs[t.Index] = rec
	c.out.siteCounters(s, rep, fired0)
	c.mu.Unlock()
	return yearMetrics(rep, simclock.Time(c.days)*simclock.Day), nil
}

// roundCounters records a round's campaign-level counters.
func (c *campaignRun) roundCounters(res *campaign.Result, workers int) {
	L := c.out.layers
	L["campaign.serial_ns"] += float64(res.SerialTime())
	L["campaign.capacity_ns"] += float64(workers) * float64(res.Wall)
}

// manualDowntime runs the manual-mode baseline of one trial.
func manualDowntime(seed uint64, days int) (float64, error) {
	site, err := qoscluster.NewSite(qoscluster.SmallTopology(),
		qoscluster.WithMode(qoscluster.ModeManual), qoscluster.WithSeed(seed))
	if err != nil {
		return 0, err
	}
	if err := site.Run(simclock.Time(days) * simclock.Day); err != nil {
		return 0, err
	}
	return site.Report().Total.Hours(), nil
}

// yearMetrics mirrors the campaign metrics the program's "year" scenario
// reports, so the benchmark's runner produces campaign JSON comparable
// byte for byte with experiments.ReferenceRunTrial.
func yearMetrics(r qoscluster.Report, span simclock.Time) map[string]float64 {
	vals := map[string]float64{
		"downtime_h/total":   r.Total.Hours(),
		"availability_pct":   100 * metrics.Availability(r.Total, span),
		"detect_mean_s":      r.MeanDetect.Duration().Seconds(),
		"detect_p95_s":       r.P95Detect.Duration().Seconds(),
		"detect_day_s":       r.DetectDay.Duration().Seconds(),
		"detect_overnight_s": r.DetectNight.Duration().Seconds(),
		"detect_weekend_s":   r.DetectWkend.Duration().Seconds(),
		"mttr_mean_s":        r.MeanMTTR.Duration().Seconds(),
		"jobs_done":          float64(r.JobsDone),
		"jobs_failed":        float64(r.JobsFailed),
		"jobs_resubmitted":   float64(r.Resubmitted),
		"agent_runs":         float64(r.AgentRuns),
		"agent_heals":        float64(r.AgentHeals),
		"escalations":        float64(r.Escalations),
		"open_faults":        float64(r.OpenFaults),
	}
	for _, row := range r.Rows {
		vals["downtime_h/"+string(row.Category)] = row.Downtime.Hours()
		vals["incidents/"+string(row.Category)] = float64(row.Incidents)
	}
	for _, row := range r.Tiers {
		vals["downtime_h_tier/"+row.Tier] = row.Downtime.Hours()
		vals["incidents_tier/"+row.Tier] = float64(row.Incidents)
	}
	return vals
}
