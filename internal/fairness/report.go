package fairness

import (
	"fmt"
	"sort"
	"strings"

	"fairgossip/internal/stats"
)

// Report summarises how fair a run was: the distribution of per-process
// contribution/benefit ratios (Fig. 1 says these should all be equal) and
// the relationship between contribution and benefit.
type Report struct {
	N int

	// Ratio distribution.
	RatioMean float64
	RatioCoV  float64
	RatioJain float64
	RatioGini float64
	RatioP50  float64
	RatioP90  float64
	RatioP99  float64
	RatioMax  float64

	// Work (contribution) distribution, irrespective of benefit — what
	// load balancing equalises (§3.1).
	WorkCoV  float64
	WorkJain float64
	WorkGini float64

	// Pearson correlation between contribution and benefit: a fair
	// system shows strong positive correlation (work tracks benefit).
	ContribBenefitCorr float64

	// UnrequitedFrac is the fraction of processes doing >1% of mean work
	// while receiving zero benefit (Scribe's non-interested forwarders).
	UnrequitedFrac float64

	Lorenz []stats.LorenzPoint // Lorenz curve of ratios
}

// ReportFor computes a report over a subset of process IDs (nil = all).
func (l *Ledger) ReportFor(ids []int) Report {
	accounts := l.Snapshot()
	if ids == nil {
		ids = make([]int, len(accounts))
		for i := range accounts {
			ids[i] = i
		}
	}
	contribs := make([]float64, 0, len(ids))
	benefits := make([]float64, 0, len(ids))
	ratios := make([]float64, 0, len(ids))
	for _, id := range ids {
		if id < 0 || id >= len(accounts) {
			continue
		}
		a := accounts[id]
		contribs = append(contribs, Contribution(a, l.w))
		benefits = append(benefits, Benefit(a))
		ratios = append(ratios, Ratio(a, l.w))
	}
	return buildReport(contribs, benefits, ratios)
}

// Report computes the whole-population report.
func (l *Ledger) Report() Report { return l.ReportFor(nil) }

// ReportAccounts computes a report directly over a slice of accounts
// under the given weights — used for windowed (delta) reports, where the
// caller diffs two snapshots first.
func ReportAccounts(accounts []Account, w Weights) Report {
	contribs := make([]float64, len(accounts))
	benefits := make([]float64, len(accounts))
	ratios := make([]float64, len(accounts))
	for i, a := range accounts {
		contribs[i] = Contribution(a, w)
		benefits[i] = Benefit(a)
		ratios[i] = Ratio(a, w)
	}
	return buildReport(contribs, benefits, ratios)
}

func buildReport(contribs, benefits, ratios []float64) Report {
	r := Report{N: len(ratios)}
	if r.N == 0 {
		r.RatioJain, r.WorkJain = 1, 1
		return r
	}
	r.RatioMean = stats.Mean(ratios)
	r.RatioCoV = stats.CoV(ratios)
	r.RatioJain = stats.JainIndex(ratios)
	r.RatioGini = stats.Gini(ratios)
	qs := stats.Quantiles(ratios, 0.5, 0.9, 0.99, 1)
	r.RatioP50, r.RatioP90, r.RatioP99, r.RatioMax = qs[0], qs[1], qs[2], qs[3]

	r.WorkCoV = stats.CoV(contribs)
	r.WorkJain = stats.JainIndex(contribs)
	r.WorkGini = stats.Gini(contribs)

	r.ContribBenefitCorr = stats.Pearson(contribs, benefits)

	meanWork := stats.Mean(contribs)
	if meanWork > 0 {
		unrequited := 0
		for i := range contribs {
			if benefits[i] == 0 && contribs[i] > 0.01*meanWork {
				unrequited++
			}
		}
		r.UnrequitedFrac = float64(unrequited) / float64(r.N)
	}
	r.Lorenz = stats.Lorenz(ratios, 10)
	return r
}

// String renders the report as an aligned block for CLI output.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "processes            %d\n", r.N)
	fmt.Fprintf(&sb, "ratio mean           %.3f\n", r.RatioMean)
	fmt.Fprintf(&sb, "ratio CoV            %.3f\n", r.RatioCoV)
	fmt.Fprintf(&sb, "ratio Jain index     %.3f\n", r.RatioJain)
	fmt.Fprintf(&sb, "ratio Gini           %.3f\n", r.RatioGini)
	fmt.Fprintf(&sb, "ratio p50/p90/p99    %.3f / %.3f / %.3f\n", r.RatioP50, r.RatioP90, r.RatioP99)
	fmt.Fprintf(&sb, "work CoV             %.3f\n", r.WorkCoV)
	fmt.Fprintf(&sb, "work Jain index      %.3f\n", r.WorkJain)
	fmt.Fprintf(&sb, "contrib~benefit corr %.3f\n", r.ContribBenefitCorr)
	fmt.Fprintf(&sb, "unrequited workers   %.1f%%\n", r.UnrequitedFrac*100)
	return sb.String()
}

// TopContributors returns the ids of the k processes with the highest
// contribution, descending — handy for spotting broker-like hotspots
// (EXP-T2).
func (l *Ledger) TopContributors(k int) []int {
	accounts := l.Snapshot()
	ids := make([]int, len(accounts))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		return Contribution(accounts[ids[a]], l.w) > Contribution(accounts[ids[b]], l.w)
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}
