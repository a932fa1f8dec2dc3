// Benchmark harness: one benchmark per experiment in experiment.All(). Each
// regenerates the corresponding figure/claim of the paper at bench scale
// and reports domain metrics (fairness indices, delivery ratios) via
// b.ReportMetric, so `go test -bench=.` reproduces the whole evaluation.
//
// Paper-scale runs (larger n, more rounds) are produced by
// `go run ./cmd/fairbench` (its `-only` catalogue is experiment.All()).
package fairgossip_test

import (
	"strconv"
	"testing"

	"fairgossip/internal/experiment"
)

// benchOpts gives every iteration a distinct seed so benches do not just
// re-measure one RNG path, while staying deterministic per iteration.
func benchOpts(i int) experiment.Options {
	return experiment.Options{Seed: int64(1 + i), Small: true}
}

// metric pulls a numeric cell out of a table for b.ReportMetric.
func metric(b *testing.B, t experiment.Table, row, col int) float64 {
	b.Helper()
	if row >= len(t.Rows) || col >= len(t.Rows[row]) {
		b.Fatalf("table %s has no cell (%d,%d)", t.ID, row, col)
	}
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) of %s: %v", row, col, t.ID, err)
	}
	return v
}

func BenchmarkExpF1RatioFairness(b *testing.B) {
	var staticJain, adaptiveJain float64
	for i := 0; i < b.N; i++ {
		t := experiment.ExpF1(benchOpts(i))[0]
		staticJain += metric(b, t, 0, 1)
		adaptiveJain += metric(b, t, 1, 1)
	}
	b.ReportMetric(staticJain/float64(b.N), "static-jain")
	b.ReportMetric(adaptiveJain/float64(b.N), "aimd-jain")
}

func BenchmarkExpF2TopicAccounting(b *testing.B) {
	var flatCorr, groupCorr float64
	for i := 0; i < b.N; i++ {
		t := experiment.ExpF2(benchOpts(i))[0]
		flatCorr += metric(b, t, 0, 2)
		groupCorr += metric(b, t, 1, 2)
	}
	b.ReportMetric(flatCorr/float64(b.N), "flat-corr")
	b.ReportMetric(groupCorr/float64(b.N), "groups-corr")
}

func BenchmarkExpF3ExpressiveLevers(b *testing.B) {
	var bothCorr float64
	for i := 0; i < b.N; i++ {
		tables := experiment.ExpF3(benchOpts(i))
		final := tables[1]
		bothCorr += metric(b, final, 3, 3)
	}
	b.ReportMetric(bothCorr/float64(b.N), "both-levers-corr")
}

func BenchmarkExpF4PushGossip(b *testing.B) {
	var f1, f10 float64
	for i := 0; i < b.N; i++ {
		sweep := experiment.ExpF4(benchOpts(i))[0]
		f1 += metric(b, sweep, 0, 1)
		f10 += metric(b, sweep, len(sweep.Rows)-1, 1)
	}
	b.ReportMetric(f1/float64(b.N), "fanout1-coverage")
	b.ReportMetric(f10/float64(b.N), "fanout10-coverage")
}

func BenchmarkExpT1Scribe(b *testing.B) {
	var foreign float64
	for i := 0; i < b.N; i++ {
		t := experiment.ExpT1(benchOpts(i))[0]
		foreign += metric(b, t, 0, 1)
	}
	b.ReportMetric(foreign/float64(b.N), "scribe-foreign-fwd-pct")
}

func BenchmarkExpT2DAM(b *testing.B) {
	var bridgeRatio, leafRatio float64
	for i := 0; i < b.N; i++ {
		t := experiment.ExpT2(benchOpts(i))[0]
		leafRatio += metric(b, t, 0, 4)
		bridgeRatio += metric(b, t, 1, 4)
	}
	b.ReportMetric(bridgeRatio/leafRatio, "bridge-vs-leaf-ratio")
}

func BenchmarkExpT3Maintenance(b *testing.B) {
	var relays float64
	for i := 0; i < b.N; i++ {
		t := experiment.ExpT3(benchOpts(i))[0]
		relays += metric(b, t, 0, 1)
	}
	b.ReportMetric(relays/float64(b.N), "storm-walk-relays")
}

func BenchmarkExpT4BalanceVsFairness(b *testing.B) {
	var balJain, fgJain float64
	for i := 0; i < b.N; i++ {
		t := experiment.ExpT4(benchOpts(i))[0]
		balJain += metric(b, t, 0, 2)
		fgJain += metric(b, t, 1, 2)
	}
	b.ReportMetric(balJain/float64(b.N), "balanced-jain")
	b.ReportMetric(fgJain/float64(b.N), "fairgossip-jain")
}

func BenchmarkExpT5ChurnLoop(b *testing.B) {
	var staticQuits, adaptiveQuits float64
	for i := 0; i < b.N; i++ {
		t := experiment.ExpT5(benchOpts(i))[0]
		staticQuits += metric(b, t, 0, 1)
		adaptiveQuits += metric(b, t, 1, 1)
	}
	b.ReportMetric(staticQuits/float64(b.N), "static-ragequits")
	b.ReportMetric(adaptiveQuits/float64(b.N), "adaptive-ragequits")
}

func BenchmarkExpA1FanoutConvergence(b *testing.B) {
	var settle float64
	for i := 0; i < b.N; i++ {
		t := experiment.ExpA1(benchOpts(i))[0]
		settle += metric(b, t, 0, 2)
	}
	b.ReportMetric(settle/float64(b.N), "aimd-windows-to-settle")
}

func BenchmarkExpA2BatchConvergence(b *testing.B) {
	var settle float64
	for i := 0; i < b.N; i++ {
		t := experiment.ExpA2(benchOpts(i))[0]
		settle += metric(b, t, 0, 2)
	}
	b.ReportMetric(settle/float64(b.N), "aimd-windows-to-settle")
}

func BenchmarkExpA3MinFanout(b *testing.B) {
	var floor1, floorLnN float64
	for i := 0; i < b.N; i++ {
		t := experiment.ExpA3(benchOpts(i))[0]
		floor1 += metric(b, t, 0, 2)
		floorLnN += metric(b, t, len(t.Rows)-1, 2)
	}
	b.ReportMetric(floor1/float64(b.N), "fmin1-delivery")
	b.ReportMetric(floorLnN/float64(b.N), "fmin-lnN-delivery")
}

func BenchmarkExpA4MinBatch(b *testing.B) {
	var batch1, batch32 float64
	for i := 0; i < b.N; i++ {
		t := experiment.ExpA4(benchOpts(i))[0]
		batch1 += metric(b, t, 0, 1)
		batch32 += metric(b, t, len(t.Rows)-1, 1)
	}
	b.ReportMetric(batch1/float64(b.N), "batch1-delivery")
	b.ReportMetric(batch32/float64(b.N), "batch32-delivery")
}

func BenchmarkExpA5Robustness(b *testing.B) {
	var post float64
	for i := 0; i < b.N; i++ {
		t := experiment.ExpA5(benchOpts(i))[0]
		post += metric(b, t, 1, 2) // adaptive row, post-failure delivery
	}
	b.ReportMetric(post/float64(b.N), "adaptive-post-delivery")
}

func BenchmarkExpA6BiasResistance(b *testing.B) {
	var cheatUseful float64
	for i := 0; i < b.N; i++ {
		t := experiment.ExpA6(benchOpts(i))[0]
		cheatUseful += metric(b, t, 1, 3)
	}
	b.ReportMetric(cheatUseful/float64(b.N), "cheater-useful-frac")
}

func BenchmarkExpX1AntiEntropy(b *testing.B) {
	var push, pull float64
	for i := 0; i < b.N; i++ {
		t := experiment.ExpX1(benchOpts(i))[0]
		push += metric(b, t, 0, 1)
		pull += metric(b, t, 2, 1)
	}
	b.ReportMetric(push/float64(b.N), "push-coverage")
	b.ReportMetric(pull/float64(b.N), "pushpull-coverage")
}

func BenchmarkExpX2SemanticBias(b *testing.B) {
	var uniformMB, biasedMB float64
	for i := 0; i < b.N; i++ {
		t := experiment.ExpX2(benchOpts(i))[0]
		// camps=16 rows are the last two.
		n := len(t.Rows)
		uniformMB += metric(b, t, n-2, 3)
		biasedMB += metric(b, t, n-1, 3)
	}
	b.ReportMetric(uniformMB/float64(b.N), "uniform-mbytes")
	b.ReportMetric(biasedMB/float64(b.N), "biased-mbytes")
}
