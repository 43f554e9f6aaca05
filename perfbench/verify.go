package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"

	qoscluster "repro"
	"repro/experiments"
	"repro/internal/campaign"
	"repro/internal/simclock"
)

// verifyAll is the reference oracle over longer spans than the per-run
// check: each single-site workload's stepwise report against the
// program's reference path run in one call, and the campaign workload's
// JSON at one and at NumCPU workers against experiments.ReferenceRunTrial.
// Nothing is stored: every expected value is recomputed.
func verifyAll() error {
	mega, ok := qoscluster.ResolveTopology("megasite")
	if !ok {
		return fmt.Errorf("megasite topology is not registered")
	}
	for _, c := range []struct {
		name string
		topo qoscluster.Topology
		opts []qoscluster.Option
		ref  qoscluster.Option
		span simclock.Time
	}{
		{"paper-agents", qoscluster.PaperTopology(),
			[]qoscluster.Option{qoscluster.WithSeed(1), qoscluster.WithMode(qoscluster.ModeAgents)},
			qoscluster.WithReferenceScheduler(), simclock.Day},
		{"megasite-manual", mega,
			[]qoscluster.Option{qoscluster.WithSeed(1), qoscluster.WithMode(qoscluster.ModeManual)},
			qoscluster.WithReferenceProbes(), 3 * simclock.Day},
	} {
		if err := verifyStepwise(c.topo, c.opts, c.ref, c.span); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		fmt.Printf("perfbench verify: %s matches its reference path over %v\n", c.name, c.span)
	}
	if err := verifyCampaign(canarySeed, 7); err != nil {
		return fmt.Errorf("after-small: %w", err)
	}
	fmt.Println("perfbench verify: after-small campaign JSON matches the reference at 1 and NumCPU workers")
	return nil
}

// verifyStepwise advances a site one simulated hour at a time and
// compares its report after every day with a reference-path site run to
// the same time in one call.
func verifyStepwise(topo qoscluster.Topology, opts []qoscluster.Option, ref qoscluster.Option, span simclock.Time) error {
	site, err := qoscluster.NewSite(topo, opts...)
	if err != nil {
		return err
	}
	for t := simclock.Hour; t <= span; t += simclock.Hour {
		if err := site.Run(t); err != nil {
			return err
		}
		if t%simclock.Day != 0 && t != span {
			continue
		}
		want, err := referenceReport(topo, append(opts, ref), t)
		if err != nil {
			return err
		}
		got, err := json.Marshal(site.Report())
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("report at %v differs from the reference path:\n got %s\nwant %s", t, got, want)
		}
	}
	return nil
}

// verifyCampaign runs one after-small round through the benchmark's
// runner at one and at NumCPU workers and through the reference trial
// function, and requires identical campaign JSON from all three.
func verifyCampaign(seed uint64, days int) error {
	workers := runtime.NumCPU()
	m, err := experiments.CampaignMatrix("after", experiments.Config{
		Seed: seed, Days: days, Sites: []string{"small"}}, 2*workers)
	if err != nil {
		return err
	}
	ref, err := campaign.Run("after", m, 1, experiments.ReferenceRunTrial)
	if err != nil {
		return err
	}
	for _, w := range []int{1, workers} {
		res, err := campaign.Run("after", m, w, newCampaignRun(newOutcome(false), days).runFunc())
		if err != nil {
			return err
		}
		if msg := sameJSON(res, ref); msg != "" {
			return fmt.Errorf("benchmark runner at %d workers vs reference: %s", w, msg)
		}
	}
	return nil
}
