package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	qoscluster "repro"
	"repro/experiments"
	"repro/internal/campaign"
	"repro/internal/simclock"
)

// quietSite is a small manual-mode site with no fault campaign, run one
// simulated hour: nothing but the test itself disturbs its services.
func quietSite(t *testing.T) *qoscluster.Site {
	t.Helper()
	site, err := qoscluster.NewSite(qoscluster.SmallTopology(), qoscluster.WithSeed(1),
		qoscluster.WithMode(qoscluster.ModeManual), qoscluster.WithNoFaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := site.Run(simclock.Hour); err != nil {
		t.Fatal(err)
	}
	return site
}

func TestLivenessCheckFlagsKilledProcesses(t *testing.T) {
	site := quietSite(t)
	if v := checkDay(site, site.Report()); len(v.other)+len(v.knownFault) > 0 {
		t.Fatalf("quiet site fails its checks: %+v", v)
	}
	s := site.Dir.All()[0]
	for _, pid := range s.PIDs() {
		s.Host.Kill(pid) // no fault registered: nothing explains the gap
	}
	v := checkDay(site, site.Report())
	if len(v.other) != 1 || !strings.Contains(v.other[0], s.Spec.Name) || len(v.knownFault) != 0 {
		t.Fatalf("killing %s's processes: want one liveness failure, got %+v", s.Spec.Name, v)
	}
	if !v.failedDay(false) {
		t.Fatal("a liveness failure must fail the day")
	}
}

func TestLivenessCheckNamesHostRepairFault(t *testing.T) {
	site := quietSite(t)
	s := site.Dir.All()[0]
	s.Host.Crash()
	s.Host.ForceUp(site.Sim.Now())
	v := checkDay(site, site.Report())
	if !strings.Contains(strings.Join(v.knownFault, "\n"), s.Spec.Name) || len(v.other) != 0 {
		t.Fatalf("crash and repair of %s: want the named fault, got %+v", s.Host.Name, v)
	}
	if v.failedDay(false) || !v.failedDay(true) {
		t.Fatal("the named fault fails the canary's days only")
	}
}

func TestAggregateCheckCatchesPerturbation(t *testing.T) {
	m, err := experiments.CampaignMatrix("after", experiments.Config{
		Seed: 8, Days: 1, Sites: []string{"small"}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run("after", m, 2, newCampaignRun(newOutcome(false), 1).runFunc())
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkAggregates(res, "downtime_h/total"); len(bad) > 0 {
		t.Fatalf("untouched campaign fails the aggregate check: %v", bad)
	}
	st := res.Groups[0].Stats["downtime_h/total"]
	st.Max += 0.5
	res.Groups[0].Stats["downtime_h/total"] = st
	if bad := checkAggregates(res, "downtime_h/total"); len(bad) != 1 {
		t.Fatalf("perturbed max: want one aggregate failure, got %v", bad)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/agent.(*Agent).run":        "agent",
		"repro/internal/fsim.(*Volume).AppendLine": "fsim",
		"repro.(*Site).Run":                        "qoscluster",
		"repro/experiments.ReferenceRunTrial":      "experiments",
		"main.(*dayLog).runDay":                    "perfbench",
		"runtime.mallocgc":                         "",
		"strings.Builder.String":                   "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T, key string) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func keys(m map[string]metric) []string {
	var out []string
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			out = append(out, k+"=non-finite")
			continue
		}
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload for one simulated day (one round of
// one-day trials for the campaign) with the output checks and the
// oracle, untraced and traced, and requires the declared metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs simulate a day of each workload")
	}
	e2e, perLayer := benchmarkNames(t, "end_to_end"), benchmarkNames(t, "per_layer")
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 1, traced: traced, fixedDays: 1, setupBatches: 1, setupPerBatch: 1, trialDays: 1}
			out, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !out.correct() || out.attempted == 0 || out.failed != 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					name, traced, out.correct(), out.attempted, out.failed, out.problems)
			}
			got, want := keys(out.endToEnd()), e2e
			if traced {
				got, want = keys(out.perLayer()), perLayer
			}
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("%s traced=%v: metrics\n got %v\nwant %v", name, traced, got, want)
			}
			if !traced {
				for k, v := range out.endToEnd() {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, k, v.Value)
					}
				}
			}
		}
	}
}
