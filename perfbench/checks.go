package main

import (
	"fmt"

	qoscluster "repro"
	"repro/internal/campaign"
	"repro/internal/simclock"
)

// dayVerdict is the outcome of the output checks at the end of one
// simulated day.
type dayVerdict struct {
	// knownFault lists liveness violations of the named mechanism: a
	// service Running on an up host with processes missing, no open fault
	// on the host, and the host booted after the service last started —
	// the host crash wiped the process table while the service state
	// stayed Running.
	knownFault []string
	// other lists every other check failure.
	other []string
}

// failedDay reports whether the day counts as failed. On fixed inputs
// (the canary trial) the named fault fails the day; on seed-derived
// inputs only the other checks do, and the named fault is counted apart.
func (v dayVerdict) failedDay(canary bool) bool {
	return len(v.other) > 0 || (canary && len(v.knownFault) > 0)
}

// checkDay runs every per-day output check on a site. The checks are
// properties the model must have, not recorded output:
//   - a service that reads Running on an up host has all its processes,
//     unless an open fault on that host explains the gap;
//   - Report.Total equals the sum of its category rows;
//   - every incident has StartedAt <= DetectedAt <= ResolvedAt where set;
//   - no agent ran more than once per cron period;
//   - JobsDone + JobsFailed <= the number of LSF jobs.
func checkDay(site *qoscluster.Site, rep qoscluster.Report) dayVerdict {
	var v dayVerdict
	now := site.Sim.Now()
	for _, s := range site.Dir.All() {
		if !s.Running() || !s.Host.Up() || s.AllProcsPresent() {
			continue
		}
		if len(site.Registry.OpenOn(s.Host.Name)) > 0 {
			continue
		}
		msg := fmt.Sprintf("%v: service %s on %s reads %v with %v missing and no open fault",
			now, s.Spec.Name, s.Host.Name, s.State(), s.MissingProcs())
		if bootedAt := now - s.Host.Uptime(); bootedAt > s.UpSince() {
			v.knownFault = append(v.knownFault, msg+" (host rebooted after the service started)")
		} else {
			v.other = append(v.other, msg)
		}
	}

	var sum simclock.Time
	for _, row := range rep.Rows {
		sum += row.Downtime
	}
	if sum != rep.Total {
		v.other = append(v.other, fmt.Sprintf("%v: report total %v != sum of category rows %v", now, rep.Total, sum))
	}

	for _, inc := range site.Ledger.Incidents() {
		if inc.Detected && inc.DetectedAt < inc.StartedAt {
			v.other = append(v.other, fmt.Sprintf("%v: incident %d detected at %v before it started at %v",
				now, inc.ID, inc.DetectedAt, inc.StartedAt))
		}
		if inc.Resolved && (inc.ResolvedAt < inc.StartedAt || (inc.Detected && inc.ResolvedAt < inc.DetectedAt)) {
			v.other = append(v.other, fmt.Sprintf("%v: incident %d resolved at %v before it started (%v) or was detected (%v)",
				now, inc.ID, inc.ResolvedAt, inc.StartedAt, inc.DetectedAt))
		}
	}

	// Agents deploy at time zero with a phase in (0, period], so by now no
	// agent can have woken more than now/period + 1 times.
	period := site.Opts.CronPeriod
	for _, a := range site.Agents {
		c := a.Counters()
		if wakes := c.Runs + c.SkippedLock; period > 0 && int64(wakes) > int64(now/period)+1 {
			v.other = append(v.other, fmt.Sprintf("%v: agent %s woke %d times, more than once per %v period",
				now, a.Name(), wakes, period))
		}
	}

	if jobs := len(site.LSF.Jobs()); rep.JobsDone+rep.JobsFailed > jobs {
		v.other = append(v.other, fmt.Sprintf("%v: %d done + %d failed jobs exceed the %d submitted",
			now, rep.JobsDone, rep.JobsFailed, jobs))
	}
	return v
}

// checkAggregates recomputes each campaign group's mean, min and max of
// the given metric from the per-trial values and compares them with the
// campaign's own aggregates.
func checkAggregates(res *campaign.Result, name string) []string {
	type acc struct {
		sum, min, max float64
		n             int
	}
	byGroup := map[string]*acc{}
	for _, tr := range res.Trials {
		if tr.Err != "" {
			continue
		}
		x, ok := tr.Metrics[name]
		if !ok {
			continue
		}
		key := qoscluster.GroupLabel(campaign.GroupOf(tr.Trial))
		a := byGroup[key]
		if a == nil {
			a = &acc{min: x, max: x}
			byGroup[key] = a
		}
		a.sum += x
		a.n++
		a.min = min(a.min, x)
		a.max = max(a.max, x)
	}
	var bad []string
	for _, g := range res.Groups {
		key := qoscluster.GroupLabel(g)
		a := byGroup[key]
		st, ok := g.Stats[name]
		if a == nil || !ok {
			bad = append(bad, fmt.Sprintf("group %s: %s missing from trials or aggregate", key, name))
			continue
		}
		if st.N != a.n || st.Mean != a.sum/float64(a.n) || st.Min != a.min || st.Max != a.max {
			bad = append(bad, fmt.Sprintf("group %s: %s aggregate n=%d mean=%v min=%v max=%v, trials give n=%d mean=%v min=%v max=%v",
				key, name, st.N, st.Mean, st.Min, st.Max, a.n, a.sum/float64(a.n), a.min, a.max))
		}
	}
	return bad
}
