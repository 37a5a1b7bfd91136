package main

import (
	"fmt"
	"slices"
	"time"
)

// endToEndMetrics are what the users of the pass and of the daemon
// see, from an untraced run.
func (r *run) endToEndMetrics(in *input, ps *passStats, ds *daemonStats) map[string]metric {
	success := 1.0
	if n := r.attempted.Load(); n > 0 {
		success = 1 - float64(r.failed.Load())/float64(n)
	}
	fmt.Printf("pass_s is the median of %d passes; setup_s of %d input builds; submit_p50_ms of %d submissions\n",
		len(ps.walls), len(in.setupTimes), len(ds.submits))
	fmt.Printf("size_reduction_pct and dyn_instr_overhead_pct pool %d corpora\n", r.w.corpora)
	return map[string]metric{
		"setup_s":                {medianSeconds(in.setupTimes), "s"},
		"pass_s":                 {medianSeconds(ps.walls), "s"},
		"size_reduction_pct":     {100 * (1 - float64(ps.sizeAfter)/float64(ps.sizeBefore)), "%"},
		"dyn_instr_overhead_pct": {100 * (float64(ps.stepsAfter)/float64(ps.stepsBefore) - 1), "%"},
		"peak_rss_mb":            {median(ps.rss), "MB"},
		"success_rate":           {success, "ratio"},
		"query_p50_ms":           {ds.named.p50, "ms"},
		"submit_p50_ms":          {1000 * medianSeconds(ds.submits), "ms"},
		"merge_s":                {medianSeconds(ds.reMerges), "s"},
	}
}

// layerMetrics are the per-layer numbers of a traced run: what the
// pipeline reports about its traced pass (stage times, LSH counters,
// the registry, the alignment cache the benchmark passed in), runtime
// counters over that pass, and the daemon's layers timed directly.
func (r *run) layerMetrics(in *input, ps *passStats, ds *daemonStats) map[string]metric {
	rep, mx, t := ps.rep, ps.mx, ps.rep.Times
	rank := t.RankSuccess + t.RankFail
	nsPerCmp := 0.0
	if c := rep.LSHStats.Comparisons; c > 0 {
		nsPerCmp = float64(rank) / float64(c)
	}
	score := mx.Histogram("align.score", nil)
	scoreMean := 0.0
	if score.Count() > 0 {
		scoreMean = score.Sum() / float64(score.Count())
	}
	yield := 0.0
	if rep.Attempts > 0 {
		yield = float64(rep.Merges) / float64(rep.Attempts)
	}
	var attemptMs []float64
	for _, p := range rep.Pairs {
		if p.Attempted {
			attemptMs = append(attemptMs, ms(p.MergeDur))
		}
	}
	count := func(name string) metric { return metric{float64(mx.CounterValue(name)), "count"} }
	return map[string]metric{
		"core.rank_ms":                 {ms(rank), "ms"},
		"lsh.comparisons":              {float64(rep.LSHStats.Comparisons), "count"},
		"lsh.candidates_found":         {float64(rep.LSHStats.CandidatesFound), "count"},
		"lsh.bucket_cap_skips":         {float64(rep.LSHStats.CapSkips), "count"},
		"lsh.ns_per_comparison":        {nsPerCmp, "ns"},
		"core.preprocess_ms":           {ms(t.Preprocess), "ms"},
		"fingerprint.funcs":            count("funnel.fingerprinted"),
		"align.ms":                     {ms(t.AlignSuccess + t.AlignFail), "ms"},
		"align.cache_hit_rate":         {hitRate(ps.cache.Hits, ps.cache.Misses), "ratio"},
		"align.score_mean":             {scoreMean, "score"},
		"merge.codegen_ms":             {ms(t.CodegenSuccess + t.CodegenFail), "ms"},
		"merge.yield":                  {yield, "ratio"},
		"merge.unprofitable":           count("merge.unprofitable"),
		"merge.incompatible":           count("merge.incompatible"),
		"merge.attempt_p99_ms":         {quantile(attemptMs, 0.99), "ms"},
		"core.unattributed_ms":         {ms(ps.tracedWall - t.Total()), "ms"},
		"analysis.checks":              count("analysis.checks"),
		"analysis.checker.tv.runs":     count("analysis.checker.tv.runs"),
		"analysis.diagnostics.error":   count("analysis.diagnostics.error"),
		"runtime.alloc_mb":             {float64(ps.allocBytes) / (1 << 20), "MB"},
		"runtime.mallocs":              {float64(ps.mallocs), "count"},
		"runtime.gc_cycles":            {float64(ps.gcCycles), "count"},
		"serve.submit_ms":              {1000 * medianSeconds(ds.directSubmits), "ms"},
		"serve.query_ms":               {ms(ds.directQuery), "ms"},
		"http.overhead_ms":             {ms(ds.httpQuery - ds.directQuery), "ms"},
		"serve.store_comparisons":      {float64(ds.storeComparisons), "count"},
		"serve.merge_ms":               {ms(ds.directMerge), "ms"},
		"serve.remerge_cache_hit_rate": {hitRate(ds.remergeHits, ds.remergeMiss), "ratio"},
		"loadgen.late_p99_ms":          {ds.named.lateP99, "ms"},
		"query_p99_ms":                 {ds.named.p99, "ms"},
		"query_max_qps":                {ds.maxQPS, "1/s"},
		"trace.overhead_s":             {(ps.tracedWall - ps.untracedWall).Seconds(), "s"},
	}
}

func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// median is the middle value, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianSeconds is the median of durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
