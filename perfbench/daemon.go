package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"f3m/internal/core"
	"f3m/internal/ir"
	"f3m/internal/obs"
	"f3m/internal/serve"
)

// Query parameters of every probe.
const (
	queryMinSim = 0.5
	queryK      = 5
)

// consistencyProbes is how many stored probes are queried both over
// HTTP and directly once the store is quiet.
const consistencyProbes = 100

// directSubmitReps is how many direct SubmitModule calls a traced run
// times; replaceSubmits is how many times an untraced run removes and
// resubmits the writer's module before each re-merge.
const (
	directSubmitReps = 3
	replaceSubmits   = 3
)

// daemonStats collects the daemon session of a run.
type daemonStats struct {
	submits  []time.Duration // HTTP submissions: the corpus, then every writer resubmit
	named    stepResult
	maxQPS   float64
	reMerges []time.Duration // POST /v1/merge after a module was replaced

	// Quiet-store probe timings (medians): direct Server.QueryStored
	// and the same query over HTTP.
	directQuery, httpQuery time.Duration

	// Traced runs: direct layer calls.
	directSubmits            []time.Duration
	directMerge              time.Duration
	remergeHits, remergeMiss int64
	storeComparisons         int64
}

// client issues HTTP requests to the daemon; every response counts as
// one attempted operation, failed unless 2xx.
type client struct {
	base string
	hc   *http.Client
	r    *run
}

func (c *client) do(method, path string, body []byte, out any) bool {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.r.attempt(false)
		return false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.r.attempt(false)
		return false
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ok := err == nil && resp.StatusCode/100 == 2
	if ok && out != nil {
		if s, isStr := out.(*string); isStr {
			*s = string(data)
		} else {
			ok = json.Unmarshal(data, out) == nil
		}
	}
	c.r.attempt(ok)
	return ok
}

// queryResp is the /v1/query response body.
type queryResp struct {
	Matches []serve.Match `json:"matches"`
}

// daemon runs the session: start a server on loopback, submit the
// corpus, drive the query ladder with a writer beside it, check the
// store answers the same over HTTP as directly, then merge, replace
// one module and re-merge, checking every merge against the oracle.
func (r *run) daemon(root *span, in *input) (*daemonStats, error) {
	sp := root.child("daemon")
	defer sp.end()
	ds := &daemonStats{}
	debug.FreeOSMemory()

	// Traced runs give the daemon a metrics registry (the re-merge's
	// cache counters come from it) but no tracer: the ladder they climb
	// should cost what an untraced daemon costs.
	cfg := serve.DefaultConfig()
	cfg.EnableShutdown = false
	if r.traced {
		cfg.Metrics = obs.NewMetrics()
	}
	srv := serve.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	tr := &http.Transport{MaxConnsPerHost: loadWorkers, MaxIdleConnsPerHost: loadWorkers}
	c := &client{base: "http://" + ln.Addr().String(), hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, r: r}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		_ = srv.Close(ctx)
		tr.CloseIdleConnections()
		<-served
	}()

	// Submit the corpus; the writer's module is the last one and its
	// functions are never probed (they vanish while it is replaced).
	sub := sp.child("http.submit")
	type probe struct{ module, fn string }
	var probes []probe
	for i, p := range in.parts {
		body, _ := json.Marshal(map[string]string{"name": p.name, "ir": p.src})
		var info serve.ModuleInfo
		t := time.Now()
		if !c.do("POST", "/v1/modules", body, &info) {
			return nil, fmt.Errorf("submitting %s failed", p.name)
		}
		ds.submits = append(ds.submits, time.Since(t))
		if i < len(in.parts)-1 {
			for _, f := range info.Funcs {
				probes = append(probes, probe{p.name, f})
			}
		}
	}
	sub.end()
	rand.New(rand.NewSource(r.seed)).Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
	bodies := make([][]byte, len(probes))
	for i, p := range probes {
		bodies[i], _ = json.Marshal(map[string]any{"module": p.module, "func": p.fn, "min_similarity": queryMinSim, "k": queryK})
	}

	writer := in.parts[len(in.parts)-1]
	writerBody, _ := json.Marshal(map[string]string{"name": writer.name, "ir": writer.src})
	var mu sync.Mutex
	var badAnswers atomic.Int64
	query := func(i int) bool {
		var qr queryResp
		if !c.do("POST", "/v1/query", bodies[i], &qr) {
			return false
		}
		if !validMatches(qr.Matches, probes[i].module, probes[i].fn) {
			badAnswers.Add(1)
		}
		return true
	}
	write := func() bool {
		if !c.do("DELETE", "/v1/modules/"+writer.name, nil, nil) {
			return false
		}
		t := time.Now()
		ok := c.do("POST", "/v1/modules", writerBody, nil)
		if ok {
			mu.Lock()
			ds.submits = append(ds.submits, time.Since(t))
			mu.Unlock()
		}
		return ok
	}

	// Untraced runs hold only the named step: its p50 is an end-to-end
	// metric. Traced runs climb the whole ladder for query_max_qps, the
	// highest rate that passed below the first two failing steps in a
	// row (one failing step alone is taken for a stall of the shared
	// host, not the daemon's limit).
	l := r.w.load
	rates := []float64{l.namedRate}
	if r.traced {
		rates = l.rates
	}
	lad := sp.child("loadgen.ladder")
	fails := 0
	for k, rate := range rates {
		dur := time.Duration(l.stepSec * float64(time.Second))
		if rate == l.namedRate {
			dur = time.Duration(l.namedSec * float64(time.Second))
		}
		st := lad.child("loadgen.step")
		st.attr("rate", rate)
		res := runStep(rate, dur, l, len(probes), k, query, write)
		st.end()
		fmt.Printf("step %5.0f q/s %4.1fs: p50 %6.2f ms p99 %7.2f ms late_p99 %5.2f ms backlog %d failed %d dropped %d valid %v pass %v\n",
			rate, res.seconds, res.p50, res.p99, res.lateP99, res.backlog, res.failed, res.dropped, res.valid, res.pass)
		if rate == l.namedRate {
			ds.named = res
		}
		if res.pass {
			ds.maxQPS, fails = rate, 0
		} else if fails++; fails == 2 {
			break
		}
	}
	lad.end()
	r.oracle(badAnswers.Load() == 0, "%d query answers were malformed", badAnswers.Load())

	// Quiet store: every probe must answer the same over HTTP as
	// directly; the two timings give the HTTP layer's overhead.
	qc := sp.child("serve.query")
	var direct, viaHTTP []time.Duration
	for i := 0; i < min(consistencyProbes, len(probes)); i++ {
		t := time.Now()
		want, err := srv.QueryStored(probes[i].module, probes[i].fn, queryMinSim, queryK)
		direct = append(direct, time.Since(t))
		var qr queryResp
		t = time.Now()
		ok := c.do("POST", "/v1/query", bodies[i], &qr)
		viaHTTP = append(viaHTTP, time.Since(t))
		r.oracle(err == nil && ok && slices.Equal(want, qr.Matches), "probe %s/%s: HTTP answer differs from the store's", probes[i].module, probes[i].fn)
	}
	ds.directQuery, ds.httpQuery = medianDur(direct), medianDur(viaHTTP)
	qc.end()

	// serve-mix merges cold first, so its re-merges after a module is
	// replaced (with the same source) find the persistent alignment
	// cache warm; on the pipeline workloads the merge after the
	// replacement is the first one. The corpus never changes, so every
	// merge's report_key must equal the first one's.
	var cold, again serve.MergeSummary
	if r.w.coldMerge {
		mg := sp.child("http.merge")
		if !c.do("POST", "/v1/merge", nil, &cold) {
			return nil, errors.New("cold merge failed")
		}
		mg.end()
	}
	sameKey := func() {
		if cold.ReportKey == "" {
			cold = again
			return
		}
		r.oracle(again.ReportKey == cold.ReportKey, "re-merge report_key %s differs from the first merge's %s", again.ReportKey, cold.ReportKey)
	}

	if r.traced {
		// Direct layer calls: resubmit the writer's module a few times,
		// then merge. After every merge the daemon adds its persistent
		// cache's lifetime totals to the registry, so with at most one
		// merge before, the registry holds that merge's totals and this
		// merge's own counts are the next delta minus them.
		for k := 0; k < directSubmitReps; k++ {
			if err := srv.RemoveModule(writer.name); err != nil && !errors.Is(err, serve.ErrNotFound) {
				return nil, err
			}
			d := sp.child("serve.SubmitModule")
			t := time.Now()
			_, err := srv.SubmitModule(writer.name, writer.src)
			ds.directSubmits = append(ds.directSubmits, time.Since(t))
			d.end()
			if err != nil {
				return nil, err
			}
		}
		hits0, miss0 := cfg.Metrics.CounterValue("merge.cache_hit"), cfg.Metrics.CounterValue("merge.cache_miss")
		d := sp.child("serve.Merge")
		t := time.Now()
		again, err = srv.Merge()
		ds.directMerge = time.Since(t)
		d.end()
		if err != nil {
			return nil, err
		}
		ds.remergeHits = cfg.Metrics.CounterValue("merge.cache_hit") - 2*hits0
		ds.remergeMiss = cfg.Metrics.CounterValue("merge.cache_miss") - 2*miss0
		ds.storeComparisons = srv.Store().Stats().LSH.Comparisons
		sameKey()
	}
	for k := 0; !r.traced && k < r.w.remerges; k++ {
		rp := sp.child("replace")
		for n := 0; n < replaceSubmits; n++ {
			if !c.do("DELETE", "/v1/modules/"+writer.name, nil, nil) {
				return nil, errors.New("removing the writer's module failed")
			}
			t := time.Now()
			if !c.do("POST", "/v1/modules", writerBody, nil) {
				return nil, errors.New("resubmitting the writer's module failed")
			}
			ds.submits = append(ds.submits, time.Since(t))
		}
		rp.end()
		mg := sp.child("http.merge")
		t := time.Now()
		ok := c.do("POST", "/v1/merge", nil, &again)
		ds.reMerges = append(ds.reMerges, time.Since(t))
		mg.end()
		if !ok {
			return nil, errors.New("re-merge failed")
		}
		sameKey()
	}
	fmt.Printf("daemon merge: %d modules, %d funcs, %d merges, report_key %s\n", cold.Modules, cold.NumFuncs, cold.Merges, cold.ReportKey)

	// The merged corpus must verify and behave like the unmerged one.
	var merged string
	if !c.do("GET", "/v1/merged", nil, &merged) {
		return nil, errors.New("fetching the merged module failed")
	}
	ck := sp.child("oracle.merged")
	mm, err := ir.ParseModule(merged)
	r.oracle(err == nil, "merged module does not parse: %v", err)
	if err == nil {
		verr := ir.VerifyModule(mm)
		r.oracle(verr == nil, "merged module invalid: %v", verr)
		r.checkDrivers(&in.corpus, mm, "daemon merge", ck)
	}
	ck.end()

	if r.w.oneShot {
		key, err := r.oneShotKey(sp, in)
		if err != nil {
			return nil, err
		}
		r.oracle(key == cold.ReportKey, "daemon report_key %s differs from the one-shot run's %s", cold.ReportKey, key)
	}
	return ds, nil
}

// oneShotKey runs core.Run once over the daemon's corpus, linked the
// way the daemon links it (canonical sources in name order), and
// returns the report key the daemon must reproduce.
func (r *run) oneShotKey(parent *span, in *input) (string, error) {
	sp := parent.child("oracle.oneshot")
	defer sp.end()
	parts := append([]part(nil), in.parts...)
	sort.Slice(parts, func(i, j int) bool { return parts[i].name < parts[j].name })
	mods := make([]*ir.Module, len(parts))
	for i, p := range parts {
		m, err := ir.ParseModule(p.src)
		if err != nil {
			return "", err
		}
		// The daemon re-parses its canonical (printed) form.
		if mods[i], err = ir.ParseModule(ir.ModuleString(m)); err != nil {
			return "", err
		}
	}
	linked, err := ir.LinkModules("service", mods...)
	if err != nil {
		return "", err
	}
	rep, err := core.Run(linked, core.DefaultConfig(serve.DefaultConfig().Strategy))
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(serve.CanonicalReport(rep)))
	return hex.EncodeToString(sum[:]), nil
}

// validMatches checks one query answer's shape: at most k matches, all
// at or above the similarity floor, in non-increasing order, never the
// probe itself.
func validMatches(ms []serve.Match, module, fn string) bool {
	if len(ms) > queryK {
		return false
	}
	for i, m := range ms {
		if m.Similarity < queryMinSim || m.Similarity > 1 || (m.Module == module && m.Func == fn) {
			return false
		}
		if i > 0 && ms[i-1].Similarity < m.Similarity {
			return false
		}
	}
	return true
}

func medianDur(ds []time.Duration) time.Duration {
	return time.Duration(medianSeconds(ds) * float64(time.Second))
}
