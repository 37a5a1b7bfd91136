package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"f3m/internal/analysis/summary"
	"f3m/internal/ir"
	"f3m/internal/irgen"
	"f3m/internal/obs"
)

// SelfCheck boots a real loopback HTTP server around a fresh Server
// and drives every route in Routes() end to end: submit synthetic
// modules, query stored and inline probes, merge, snapshot, remove a
// module, restore, and re-merge — asserting the post-restore merge
// reproduces the pre-snapshot report key byte-for-byte — then begins
// graceful shutdown and confirms new requests are refused with 503.
//
// When servingDoc names a readable file (normally SERVING.md), the
// check also fails if any route's "METHOD PATTERN" line is missing
// from it — the docs-drift gate scripts/check.sh runs in CI.
//
// Progress lines go to w. A nil error means every check passed.
func SelfCheck(w io.Writer, servingDoc string) error {
	if w == nil {
		w = io.Discard
	}
	tmp, err := os.MkdirTemp("", "f3m-selfcheck-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	snapPath := filepath.Join(tmp, "state.snap")

	cfg := DefaultConfig()
	cfg.Metrics = obs.NewMetrics()
	cfg.SnapshotPath = snapPath
	srv := NewServer(cfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: ReadHeaderTimeout}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(w, "selfcheck: listening on %s\n", base)

	c := &smokeClient{base: base, hit: map[string]bool{}}

	// Synthetic corpus: two small modules with disjoint function names.
	srcA := smokeModule(1, "a_")
	srcB := smokeModule(2, "b_")

	// healthz (empty).
	var h Health
	if err := c.do("GET", "/v1/healthz", "healthz", nil, http.StatusOK, &h); err != nil {
		return err
	}
	if h.Status != "ok" || h.Modules != 0 {
		return fmt.Errorf("selfcheck: unexpected empty health %+v", h)
	}

	// Submit both modules; re-submitting must 409.
	var info ModuleInfo
	if err := c.do("POST", "/v1/modules", "modules.submit", map[string]string{"name": "a", "ir": srcA}, http.StatusCreated, &info); err != nil {
		return err
	}
	if err := c.do("POST", "/v1/modules", "modules.submit", map[string]string{"name": "b", "ir": srcB}, http.StatusCreated, nil); err != nil {
		return err
	}
	if err := c.do("POST", "/v1/modules", "modules.submit", map[string]string{"name": "a", "ir": srcA}, http.StatusConflict, nil); err != nil {
		return err
	}
	fmt.Fprintf(w, "selfcheck: submitted 2 modules (%d funcs in a)\n", len(info.Funcs))

	// List and get.
	var list struct {
		Modules []ModuleInfo `json:"modules"`
	}
	if err := c.do("GET", "/v1/modules", "modules.list", nil, http.StatusOK, &list); err != nil {
		return err
	}
	if len(list.Modules) != 2 {
		return fmt.Errorf("selfcheck: want 2 modules, got %d", len(list.Modules))
	}
	if err := c.do("GET", "/v1/modules/a", "modules.get", nil, http.StatusOK, &info); err != nil {
		return err
	}
	if err := c.do("GET", "/v1/modules/nope", "modules.get", nil, http.StatusNotFound, nil); err != nil {
		return err
	}

	// Query: stored probe and inline probe.
	var q struct {
		Matches []Match `json:"matches"`
	}
	stored := map[string]any{"module": "a", "func": info.Funcs[0], "min_similarity": 0.0, "k": 5}
	if err := c.do("POST", "/v1/query", "query", stored, http.StatusOK, &q); err != nil {
		return err
	}
	inline := map[string]any{"ir": srcA, "func": info.Funcs[0], "min_similarity": 0.5}
	if err := c.do("POST", "/v1/query", "query", inline, http.StatusOK, &q); err != nil {
		return err
	}
	// The inline probe is function info.Funcs[0] itself, still indexed:
	// it must come back as a similarity-1 match.
	if len(q.Matches) == 0 || q.Matches[0].Similarity < 0.999 {
		return fmt.Errorf("selfcheck: inline self-query found no exact match: %+v", q.Matches)
	}
	fmt.Fprintf(w, "selfcheck: queries ok (%d matches for inline self-probe)\n", len(q.Matches))

	// Summaries: the exported set must cover both modules and ingest
	// cleanly into a cross-module planning index (version, params and
	// one-definition checks all pass).
	var sums struct {
		Modules []*summary.ModuleSummary `json:"modules"`
	}
	if err := c.do("GET", "/v1/summaries", "summaries", nil, http.StatusOK, &sums); err != nil {
		return err
	}
	if len(sums.Modules) != 2 {
		return fmt.Errorf("selfcheck: want 2 module summaries, got %d", len(sums.Modules))
	}
	six := summary.NewIndex()
	for _, ms := range sums.Modules {
		if err := six.Add(ms); err != nil {
			return fmt.Errorf("selfcheck: exported summaries do not ingest: %w", err)
		}
	}
	fmt.Fprintf(w, "selfcheck: summaries ok (%d modules, %d funcs in %s)\n",
		len(sums.Modules), len(sums.Modules[0].Funcs), sums.Modules[0].Module)

	// Merge, report, merged IR.
	var sum MergeSummary
	if err := c.do("POST", "/v1/merge", "merge", nil, http.StatusOK, &sum); err != nil {
		return err
	}
	if sum.ReportKey == "" {
		return fmt.Errorf("selfcheck: merge returned empty report key")
	}
	var rep struct {
		Summary MergeSummary `json:"summary"`
		Pairs   []PairInfo   `json:"pairs"`
	}
	if err := c.do("GET", "/v1/report", "report", nil, http.StatusOK, &rep); err != nil {
		return err
	}
	if rep.Summary.ReportKey != sum.ReportKey {
		return fmt.Errorf("selfcheck: report key drifted between merge and report")
	}
	merged, err := c.raw("GET", "/v1/merged", "merged", nil, http.StatusOK)
	if err != nil {
		return err
	}
	if _, err := ir.ParseModule(string(merged)); err != nil {
		return fmt.Errorf("selfcheck: merged IR does not re-parse: %w", err)
	}
	fmt.Fprintf(w, "selfcheck: merge ok (attempts=%d merges=%d key=%s)\n", sum.Attempts, sum.Merges, sum.ReportKey[:12])

	// Metrics, JSON and text.
	if _, err := c.raw("GET", "/v1/metrics", "metrics", nil, http.StatusOK); err != nil {
		return err
	}
	if _, err := c.raw("GET", "/v1/metrics?format=text", "metrics", nil, http.StatusOK); err != nil {
		return err
	}

	// Snapshot, mutate (remove module b), restore, re-merge: the
	// restored corpus must reproduce the pre-snapshot report key.
	var snap SnapshotInfo
	if err := c.do("POST", "/v1/snapshot", "snapshot", nil, http.StatusOK, &snap); err != nil {
		return err
	}
	if err := c.do("DELETE", "/v1/modules/b", "modules.remove", nil, http.StatusOK, nil); err != nil {
		return err
	}
	var sumA MergeSummary
	if err := c.do("POST", "/v1/merge", "merge", nil, http.StatusOK, &sumA); err != nil {
		return err
	}
	if sumA.ReportKey == sum.ReportKey {
		return fmt.Errorf("selfcheck: report key unchanged after removing a module")
	}
	var rest RestoreInfo
	if err := c.do("POST", "/v1/restore", "restore", nil, http.StatusOK, &rest); err != nil {
		return err
	}
	if rest.Modules != 2 {
		return fmt.Errorf("selfcheck: restore recovered %d modules, want 2", rest.Modules)
	}
	var sum2 MergeSummary
	if err := c.do("POST", "/v1/merge", "merge", nil, http.StatusOK, &sum2); err != nil {
		return err
	}
	if sum2.ReportKey != sum.ReportKey {
		return fmt.Errorf("selfcheck: post-restore merge report key %s != pre-snapshot %s", sum2.ReportKey, sum.ReportKey)
	}
	fmt.Fprintf(w, "selfcheck: snapshot/restore ok (%d bytes, report key reproduced)\n", snap.Bytes)

	// Shutdown: accepted once, then every request is refused with 503.
	if err := c.do("POST", "/v1/shutdown", "shutdown", nil, http.StatusOK, nil); err != nil {
		return err
	}
	select {
	case <-srv.ShutdownRequested():
	case <-time.After(5 * time.Second):
		return fmt.Errorf("selfcheck: shutdown endpoint did not trip ShutdownRequested")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		return fmt.Errorf("selfcheck: drain: %w", err)
	}
	if err := c.do("GET", "/v1/healthz", "healthz", nil, http.StatusServiceUnavailable, nil); err != nil {
		return err
	}
	fmt.Fprintf(w, "selfcheck: graceful shutdown ok (new requests refused)\n")

	// Route coverage: every registered route must have been driven.
	for _, rt := range Routes() {
		if !c.hit[rt.Name] {
			return fmt.Errorf("selfcheck: route %s %s (%s) was never exercised", rt.Method, rt.Pattern, rt.Name)
		}
	}

	// Docs drift: every route must appear in the serving reference.
	if servingDoc != "" {
		doc, err := os.ReadFile(servingDoc)
		if err != nil {
			return fmt.Errorf("selfcheck: serving doc: %w", err)
		}
		for _, rt := range Routes() {
			needle := rt.Method + " " + rt.Pattern
			if !strings.Contains(string(doc), needle) {
				return fmt.Errorf("selfcheck: %s does not document %q", servingDoc, needle)
			}
		}
		fmt.Fprintf(w, "selfcheck: %s documents all %d routes\n", servingDoc, len(Routes()))
	}

	fmt.Fprintf(w, "selfcheck: PASS\n")
	return nil
}

// smokeModule renders a small synthetic module whose function names
// carry the given prefix, so several can be linked without collisions.
func smokeModule(seed int64, prefix string) string {
	gcfg := irgen.DefaultConfig(seed)
	gcfg.Families = 2
	gcfg.FamilySizeMin, gcfg.FamilySizeMax = 2, 2
	gcfg.Singletons = 2
	gcfg.Callers = 1
	res := irgen.Generate(gcfg)
	for _, f := range res.Module.Funcs {
		res.Module.RenameFunc(f, prefix+f.Name())
	}
	return ir.ModuleString(res.Module)
}

// smokeClient is a minimal JSON client that records route coverage.
type smokeClient struct {
	base string
	hit  map[string]bool
}

// raw issues one request, asserts the status, returns the body.
func (c *smokeClient) raw(method, path, route string, body any, wantStatus int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != wantStatus {
		return nil, fmt.Errorf("selfcheck: %s %s: status %d, want %d (body: %.200s)", method, path, resp.StatusCode, wantStatus, out)
	}
	c.hit[route] = true
	return out, nil
}

// do is raw plus JSON-decoding the response into out (when non-nil).
func (c *smokeClient) do(method, path, route string, body any, wantStatus int, out any) error {
	b, err := c.raw(method, path, route, body, wantStatus)
	if err != nil {
		return err
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return fmt.Errorf("selfcheck: %s %s: bad response JSON: %w", method, path, err)
		}
	}
	return nil
}
