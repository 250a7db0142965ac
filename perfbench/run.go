package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"orochi/internal/epoch"
	"orochi/internal/lang"
	"orochi/internal/server"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

const (
	// conns is the generator's keep-alive connection (and goroutine)
	// count: the host's two cores.
	conns = 2
	// epochEvents seals an epoch every 512 trace events (256
	// requests), so that every rung's chain holds several full epochs,
	// cut and sealed while serving, and epoch_verdict_p50_ms is a median
	// over many. Sealing then loads the host steadily through a rung
	// instead of in one burst whose overlap with the requests decides
	// the rung's p90.
	epochEvents = 512
	// canaryRequests is the length of the tamper canary's stream.
	canaryRequests = 40
)

// served is one rung's serving and auditing outcome.
type served struct {
	rung     rungResult
	setup    time.Duration
	closeDur time.Duration
	audit    chainAudit
	answered int // requests the stack answered, the warm-up included
	stored   int64
	chunks   int
	logical  int64 // bytes the sealed manifests pin
	status   epoch.ManagerStatus
	tap      *timingTap
	// serveAllocs counts heap allocations from the first request to
	// the sealed chain (traced run only).
	serveAllocs uint64
}

// serveRung sets up a fresh stack in dir, serves the stream at rate,
// seals the chain and audits it, and checks that the audit accepted
// exactly what the clients received.
func serveRung(ctx context.Context, st *stream, prog *lang.Program, rate float64, dir string, spans *spanTable, obs verifier.Observer, rep *report) (*served, error) {
	stk, setup, err := startStack(st.w, st.reqs[0], dir, stackOptions{epochEvents: epochEvents, spans: spans})
	if err != nil {
		return nil, err
	}
	var m0 runtimeCounters
	if spans != nil {
		m0 = readRuntime()
	}
	r := openLoop(stk.base, st.reqs[1:], 1, st.offsets(1, rate), conns)
	r.rate = rate
	closeDur, err := stk.close()
	if err != nil {
		return nil, err
	}
	out := &served{rung: r, setup: setup, closeDur: closeDur, answered: 1 + r.sent - r.failed,
		status: stk.mgr.Status(), tap: stk.tap}
	if spans != nil {
		out.serveAllocs = readRuntime().mallocs - m0.mallocs
	}
	if out.audit, err = auditChain(ctx, prog, dir, obs, spans != nil); err != nil {
		return nil, err
	}
	store, err := epoch.OpenChainStore(dir)
	if err != nil {
		return nil, err
	}
	if out.chunks, out.stored, err = store.Stats(); err != nil {
		return nil, err
	}
	for _, s := range out.status.Sealed {
		out.logical += s.Bytes
	}

	// Correctness gate: every honest epoch ACCEPTs, the chain sealed
	// every answered request, and the clients received exactly the
	// response bytes the audit verified.
	rep.attempted += 1 + r.sent
	rep.failed += r.failed
	rejected := 0
	for _, v := range out.audit.verdicts {
		if !v.Accepted {
			rejected++
		}
	}
	rep.attempted += len(out.audit.verdicts)
	rep.failed += rejected
	rep.check(out.audit.accepted && rejected == 0, "rate %4.0f: %d epochs audited, %d rejected", rate, len(out.audit.verdicts), rejected)
	rep.check(out.audit.requests == out.answered, "rate %4.0f: sealed %d requests, answered %d (%d failed)", rate, out.audit.requests, out.answered, r.failed)
	sealedHashes, err := sealedBodies(dir)
	if err != nil {
		return nil, err
	}
	client := []uint64{stk.warmHash}
	for i, l := range r.latency {
		if l != failedLatency {
			client = append(client, r.bodies[i])
		}
	}
	slices.Sort(client)
	rep.check(slices.Equal(client, sealedHashes), "rate %4.0f: client response bodies equal the sealed, audited ones", rate)
	return out, nil
}

// runCanary runs the tamper canary, records its outcome and returns
// its stack's set-up time.
func runCanary(ctx context.Context, st *stream, prog *lang.Program, seed int64, work string, rep *report) (time.Duration, error) {
	m := int64(canaryRequests - 2)
	nth := 2 + (seed%m+m)%m // a stream request, never the warm-up
	ok, detail, setup, err := canary(ctx, st, prog, filepath.Join(work, "canary"), canaryRequests, nth)
	if err != nil {
		return 0, err
	}
	rep.attempted += canaryRequests + 1 // its requests and its one epoch
	if !ok {
		rep.failed++
	}
	rep.check(ok, "tamper canary: %s", detail)
	return setup, nil
}

// warmUp serves the start of the stream on a throwaway stack as fast
// as two connections allow, so the process's runtime has reached its
// working heap and the host's caches are warm before any rung is timed.
// Nothing it measures is reported except its set-up time.
func warmUp(st *stream, dir string) (time.Duration, error) {
	stk, setup, err := startStack(st.w, st.reqs[0], dir, stackOptions{epochEvents: epochEvents})
	if err != nil {
		return 0, err
	}
	n := min(len(st.reqs)-1, warmUpRequests)
	openLoop(stk.base, st.reqs[1:1+n], 1, make([]time.Duration, n), conns)
	_, err = stk.close()
	return setup, err
}

// warmUpRequests is the length of the warm-up stretch.
const warmUpRequests = 500

// runServeAudit is the untraced run: the schedule's rungs, each on a
// fresh stack with its chain audited, then the tamper canary.
func runServeAudit(ctx context.Context, s spec, seed int64, seconds int, work string) (*report, error) {
	rep := &report{correct: true}
	n := s.requestsFor(seconds)
	st, err := generate(s, seed, n)
	if err != nil {
		return nil, err
	}
	prog, err := lang.Compile(st.w.App.Sources)
	if err != nil {
		return nil, err
	}
	rep.note("workload %s seed %d: %d requests per rung, schedule %v req/s, p90 limit %.0f ms, %d connections",
		s.name, seed, n, s.schedule(), limitMS, conns)
	warmSetup, err := warmUp(st, filepath.Join(work, "warm-up"))
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	setups := []float64{warmSetup.Seconds()}
	var rungs []*served
	for k, rate := range s.schedule() {
		dir := filepath.Join(work, fmt.Sprintf("rung-%d", k))
		sv, err := serveRung(ctx, st, prog, rate, dir, nil, nil, rep)
		if err != nil {
			return nil, fmt.Errorf("rung %.0f req/s: %w", rate, err)
		}
		os.RemoveAll(dir)
		rungs = append(rungs, sv)
		setups = append(setups, sv.setup.Seconds())
	}
	canarySetup, err := runCanary(ctx, st, prog, seed, work, rep)
	if err != nil {
		return nil, err
	}
	setups = append(setups, canarySetup.Seconds())

	// The reference rungs serve the same requests on the same arrival
	// schedule with the same epoch cuts, so a window of the stream reads
	// the same in each of them but for the host's noise (CPU steal,
	// neighbours), which only ever adds latency and CPU time. So each
	// window counts with its best reading over the reference rungs, the
	// latency figures are the median over the windows, and the CPU cost
	// is the best of the rungs.
	var p50, p90 [][]float64
	var p99, cpu []float64
	var storage, auditRate, auditCPU, verdictMS []float64
	for _, sv := range rungs {
		r := sv.rung
		if r.rate == s.refRate {
			p50 = append(p50, windowPercentiles(r.latency, 0.50))
			p90 = append(p90, windowPercentiles(r.latency, 0.90))
			p99 = append(p99, ms(percentile(r.latency, 0.99)))
			cpu = append(cpu, us(r.cpu)/float64(r.sent-r.failed))
		}
		storage = append(storage, float64(sv.stored)/float64(sv.audit.requests))
		a := sv.audit
		auditRate = append(auditRate, float64(a.requests)/a.wall.Seconds())
		auditCPU = append(auditCPU, us(a.cpu)/float64(a.requests))
		verdictMS = append(verdictMS, a.fullEpochMS())
	}
	rep.add("setup_s", "s", median(setups))
	rep.add("serve_p50_ms", "ms", median(bestPerWindow(p50)))
	rep.add("serve_p90_ms", "ms", median(bestPerWindow(p90)))
	rep.add("serve_max_rps", "1/s", maxRate(s, rungs, rep))
	rep.add("serve_cpu_us_per_req", "us", slices.Min(cpu))
	rep.add("storage_bytes_per_req", "B", median(storage))
	rep.add("audit_req_per_s", "1/s", median(auditRate))
	rep.add("audit_cpu_us_per_req", "us", median(auditCPU))
	rep.add("epoch_verdict_p50_ms", "ms", median(verdictMS))
	rep.add("peak_rss_mb", "MB", peakRSSMB())

	for k := range p50 {
		rep.note("reference rung %d, %d samples: window p50 %s ms; window p90 %s ms; CPU %.0f us/req; p99 %.3f ms (a diagnostic, not gated)",
			k+1, n-1, floats(p50[k], 2), floats(p90[k], 2), cpu[k], p99[k])
	}
	rep.note("setup samples (s): %s", floats(setups, 4))
	rep.note("per drain: audit %s req/s; median full-epoch verifier time %s ms", floats(auditRate, 0), floats(verdictMS, 1))
	return rep, nil
}

// maxRate is serve_max_rps: the rate at which the p90 latency reaches
// the workload's limit, read off the ladder. The reference rate counts as
// the ladder's lowest rate. Latency counts from the due time, so a
// backlog that grows over a rung raises its p90 too. Near saturation a
// rung either keeps up or falls behind, and which one it does turns on
// how fast the host runs during its second or so: a slow stretch (CPU
// steal, a neighbour) only ever raises a rung's p90, and a fast one
// lowers it. Each rate is served four times, early, midway and late in
// the run, and reads as the mean log(p90) of its two best rungs: the
// two slowest are set aside as the host's, and a single lucky rung does
// not decide the rate. A rate with a failed request misses the limit.
// Those readings need not rise with the rate, so they are fitted by the
// closest curve that does not fall as the rate rises (isotonic
// regression, which pools neighbouring rates that disagree into their
// mean), and serve_max_rps is the rate where that curve crosses the
// limit, interpolated linearly between the rates. It is 0 if the
// reference rate misses the limit and the top rate if no rate does.
func maxRate(s spec, rungs []*served, rep *report) float64 {
	rates := append([]float64{s.refRate}, s.ladder...)
	level := make([]float64, len(rates)) // each rate's reading, in log(ms)
	for i, rate := range rates {
		var logs []float64
		failed := false
		for _, sv := range rungs {
			r := sv.rung
			if r.rate != rate {
				continue
			}
			p90 := ms(percentile(r.latency, 0.90))
			logs = append(logs, math.Log(p90))
			failed = failed || r.failed > 0
			rep.note("rung %4.0f req/s: p50 %8.3f ms, p90 %9.3f ms, late p99 %8.3f ms, backlog max %d end %d, failed %d, achieved %.0f req/s",
				r.rate, ms(percentile(r.latency, 0.5)), p90, ms(percentile(r.late, 0.99)),
				r.backlogMax, r.backlogEnd, r.failed, float64(r.sent)/r.wall.Seconds())
		}
		slices.Sort(logs)
		level[i] = mean(logs[:min(2, len(logs))])
		if failed {
			level[i] = math.Inf(1)
		}
	}
	fit := nonDecreasing(level)
	var curve []string
	for i, rate := range rates {
		curve = append(curve, fmt.Sprintf("%.0f: %.3f", rate, math.Exp(fit[i])))
	}
	rep.note("fitted p90 of the two best rungs (ms) by rate (req/s): %s", strings.Join(curve, ", "))

	limit := math.Log(limitMS)
	if fit[0] > limit {
		return 0
	}
	for i := 0; i+1 < len(rates); i++ {
		if fit[i+1] > limit {
			return rates[i] + (limit-fit[i])/(fit[i+1]-fit[i])*(rates[i+1]-rates[i])
		}
	}
	return rates[len(rates)-1]
}

// nonDecreasing is the isotonic regression of ys: the non-decreasing
// sequence closest to ys in least squares. Adjacent values that fall
// are pooled into their mean until none does.
func nonDecreasing(ys []float64) []float64 {
	type block struct {
		sum   float64 // the block's values summed
		n     int     // values in the block
		first int     // index of the block's first value
	}
	var blocks []block
	for i, y := range ys {
		blocks = append(blocks, block{y, 1, i})
		for len(blocks) > 1 {
			a, b := blocks[len(blocks)-2], blocks[len(blocks)-1]
			if a.sum/float64(a.n) <= b.sum/float64(b.n) {
				break
			}
			blocks = append(blocks[:len(blocks)-2], block{a.sum + b.sum, a.n + b.n, a.first})
		}
	}
	fit := make([]float64, len(ys))
	for _, b := range blocks {
		for i := b.first; i < b.first+b.n; i++ {
			fit[i] = b.sum / float64(b.n)
		}
	}
	return fit
}

// windowRequests sizes the windows the latency metrics are taken over.
// Short windows give the median over windows many readings, so a stall
// that spoils the same window of two reference rungs moves it little.
const windowRequests = 50

// windowPercentiles splits a rung's latencies, in request order, into
// equal windows of about windowRequests and returns each window's
// q-percentile in ms.
func windowPercentiles(lat []time.Duration, q float64) []float64 {
	k := max(1, len(lat)/windowRequests)
	out := make([]float64, k)
	for i := range out {
		out[i] = ms(percentile(lat[i*len(lat)/k:(i+1)*len(lat)/k], q))
	}
	return out
}

// bestPerWindow takes, window by window, the lowest of the rungs'
// readings of that window.
func bestPerWindow(rungs [][]float64) []float64 {
	out := slices.Clone(rungs[0])
	for _, r := range rungs[1:] {
		for i := range out {
			out[i] = min(out[i], r[i])
		}
	}
	return out
}

// runTraced is the traced run. It serves the reference rung twice on
// fresh stacks, untraced and then traced, audits both chains, and
// derives the per-layer metrics from the traced one; the difference
// between the two is the tracing overhead.
func runTraced(ctx context.Context, s spec, seed int64, seconds int, work string) (*report, error) {
	rep := &report{correct: true}
	n := s.requestsFor(seconds)
	st, err := generate(s, seed, n)
	if err != nil {
		return nil, err
	}
	prog, err := lang.Compile(st.w.App.Sources)
	if err != nil {
		return nil, err
	}
	rate := s.refRate
	rep.note("traced workload %s seed %d: %d requests at %.0f req/s, %d connections", s.name, seed, n, rate, conns)
	if _, err := warmUp(st, filepath.Join(work, "warm-up")); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	plain, err := serveRung(ctx, st, prog, rate, filepath.Join(work, "plain"), nil, nil, rep)
	if err != nil {
		return nil, err
	}
	os.RemoveAll(filepath.Join(work, "plain"))

	dir := filepath.Join(work, "traced")
	spans := newSpanTable(n)
	obs := newPhaseObserver()
	m0 := readRuntime()
	tr, err := serveRung(ctx, st, prog, rate, dir, spans, obs, rep)
	if err != nil {
		return nil, err
	}
	gcPause := float64(readRuntime().pauseNS-m0.pauseNS) / 1e6
	dec, err := decompose(ctx, prog, dir, filepath.Join(work, "handoff"))
	if err != nil {
		return nil, err
	}
	if _, err := runCanary(ctx, st, prog, seed, work, rep); err != nil {
		return nil, err
	}
	baseUS, recordPct, err := recordOverhead(prog, st.w)
	if err != nil {
		return nil, err
	}

	// Loadgen layer.
	r := tr.rung
	rep.add("loadgen.late_p99_ms", "ms", ms(percentile(r.late, 0.99)))
	rep.add("loadgen.backlog_max", "count", float64(r.backlogMax))

	// HTTP front and executor, from the matched per-request spans. The
	// server's spans must nest: client send <= collector start <=
	// executor start, executor end <= collector end <= client done.
	var collSelf, process, transport, service []float64
	unmatched, unnested := 0, 0
	shift := spans.origin.Sub(r.began)
	for i := range r.latency {
		seq := 1 + i
		c, e := time.Duration(spans.collector[seq].Load()), time.Duration(spans.exec[seq].Load())
		if c == 0 || e == 0 || r.latency[i] == failedLatency {
			unmatched++
			continue
		}
		cs := shift + time.Duration(spans.collectorStart[seq].Load())
		es := shift + time.Duration(spans.execStart[seq].Load())
		if cs < r.sendAt[i] || es < cs || es+e > cs+c || cs+c > r.doneAt[i] {
			unnested++
		}
		svc := us(r.doneAt[i] - r.sendAt[i])
		collSelf = append(collSelf, us(c-e))
		process = append(process, us(e))
		transport = append(transport, svc-us(c))
		service = append(service, svc)
	}
	rep.add("httpfront.collector_us", "us", mean(collSelf))
	rep.add("httpfront.transport_us", "us", mean(transport))
	rep.add("server.process_us", "us", mean(process))
	rep.add("server.record_overhead_pct", "pct", recordPct)

	// Epoch pipeline.
	tap := tr.tap
	rep.add("epoch.tap_event_us", "us", us(tap.event)/float64(max(1, tap.events)))
	rep.add("epoch.cut_us", "us", us(tap.cut)/float64(max(1, len(tap.cuts))))
	rep.add("epoch.epochs_sealed", "count", float64(len(tr.status.Sealed)))
	var lags []float64
	for i, at := range tap.cuts {
		if i < len(tr.status.Sealed) {
			lags = append(lags, ms(tr.status.Sealed[i].SealedAt.Sub(at)))
		}
	}
	rep.add("epoch.seal_lag_ms", "ms", mean(lags))
	rep.add("epoch.close_ms", "ms", ms(tr.closeDur))

	// CAS storage and epoch load.
	rep.add("cas.stored_bytes", "B", float64(tr.stored))
	rep.add("cas.chunks", "count", float64(tr.chunks))
	rep.add("cas.dedup_ratio", "ratio", float64(tr.logical)/float64(tr.stored))
	rep.add("cas.get_calls", "count", float64(dec.store.calls))
	rep.add("cas.get_bytes", "B", float64(dec.store.bytes))
	rep.add("cas.get_us", "us", us(dec.store.took))
	rep.add("epoch.load_ms", "ms", ms(dec.load))
	rep.add("epoch.decode_ms", "ms", ms(dec.load-dec.store.took))

	// Verifier, from the production drain's observer and stats.
	var st2 verifier.Stats
	var verifyTime time.Duration
	for _, v := range tr.audit.verdicts {
		st2.DBQuery += v.Stats.DBQuery
		st2.DedupHits += v.Stats.DedupHits
		st2.DedupMisses += v.Stats.DedupMisses
		st2.RequestsReplayed += v.Stats.RequestsReplayed
		st2.GroupBatches += v.Stats.GroupBatches
		verifyTime += v.AuditTime
	}
	rep.add("verifier.phase1_ms", "ms", ms(obs.phase(verifier.PhaseProcessOpReports)))
	rep.add("verifier.redo_ms", "ms", ms(obs.phase(verifier.PhaseRedo)))
	rep.add("verifier.ops_replayed", "count", float64(obs.ops.Load()))
	rep.add("verifier.reexec_ms", "ms", ms(obs.phase(verifier.PhaseReExec)))
	rep.add("verifier.dedup_ratio", "ratio", float64(st2.RequestsReplayed)/float64(max(1, st2.GroupBatches)))
	rep.add("verifier.db_query_ms", "ms", ms(st2.DBQuery))
	rep.add("verifier.query_hit_rate", "ratio", float64(st2.DedupHits)/float64(max(1, st2.DedupHits+st2.DedupMisses)))
	rep.add("epoch.handoff_ms", "ms", ms(dec.handoff))

	// Go runtime.
	rep.add("runtime.serve_allocs_per_req", "count", float64(tr.serveAllocs)/float64(tr.answered))
	rep.add("runtime.audit_allocs_per_req", "count", float64(tr.audit.allocs)/float64(tr.audit.requests))
	rep.add("runtime.gc_pause_ms", "ms", gcPause)

	// The paper's headline, reported only.
	verifyUS := us(verifyTime) / float64(tr.audit.requests)
	rep.add("baseline.replay_us_per_req", "us", baseUS)
	rep.add("audit.speedup", "ratio", baseUS/verifyUS)

	// Tracing overhead: traced against untraced, same rung.
	plainCPU := us(plain.rung.cpu) / float64(plain.rung.sent-plain.rung.failed)
	tracedCPU := us(r.cpu) / float64(r.sent-r.failed)
	plainRate := float64(plain.audit.requests) / plain.audit.wall.Seconds()
	tracedRate := float64(tr.audit.requests) / tr.audit.wall.Seconds()
	rep.add("trace.serve_cpu_overhead_pct", "pct", 100*(tracedCPU/plainCPU-1))
	rep.add("trace.audit_overhead_pct", "pct", 100*(plainRate/tracedRate-1))

	// Reconciliation. Transport is the client's service time less the
	// collector's span, so the serve layers add up by construction; what
	// is checked is that every request left its spans and that they nest
	// on one clock. The audit's parts must add up to the decomposition
	// pass's wall time within auditMarginPct.
	layers := mean(collSelf) + mean(process) + mean(transport)
	parts := dec.load + dec.phases + dec.handoff
	auditGap := 100 * float64(dec.wall-parts) / float64(dec.wall)
	rep.add("reconcile.audit_gap_pct", "pct", auditGap)
	rep.check(unmatched == 0 && unnested == 0, "reconcile serve: collector %.1f + executor %.1f + transport %.1f = %.1f us = client service %.1f us; %d of %d requests without spans, %d with unnested spans",
		mean(collSelf), mean(process), mean(transport), layers, mean(service), unmatched, len(r.latency), unnested)
	rep.check(math.Abs(auditGap) <= auditMarginPct, "reconcile audit: load %.1f + phases %.1f + hand-off %.1f = %.1f ms vs sequential chain audit %.1f ms (gap %.2f%%, margin %.0f%%); verifier outside phases %.1f ms; production DrainSealed %.1f ms",
		ms(dec.load), ms(dec.phases), ms(dec.handoff), ms(parts), ms(dec.wall), auditGap, auditMarginPct,
		ms(dec.verify-dec.phases), ms(tr.audit.wall))
	rep.note("tracing overhead: serve CPU %.1f -> %.1f us/req, audit %.0f -> %.0f req/s", plainCPU, tracedCPU, plainRate, tracedRate)
	rep.note("untraced at %.0f req/s: p50 %.3f ms, p90 %.3f ms", rate, ms(percentile(plain.rung.latency, 0.5)), ms(percentile(plain.rung.latency, 0.9)))
	return rep, nil
}

// auditMarginPct is the reconciliation margin of the audit: the
// sequential pass's load, phases and hand-off must add up to its wall
// time within this share.
const auditMarginPct = 10.0

// recordOverhead serves the stream sequentially through server.Process
// on two fresh servers, recording on and off, alternating twice and
// keeping each side's faster pass. The record-off pass is also the
// paper's baseline: plain sequential re-execution.
func recordOverhead(prog *lang.Program, w *workload.Workload) (baseUSPerReq, overheadPct float64, err error) {
	reqs := w.Requests[:min(len(w.Requests), recordRequests)]
	pass := func(record bool) (time.Duration, error) {
		srv := server.New(prog, server.Options{Record: record})
		if err := srv.Setup(w.App.Schema); err != nil {
			return 0, err
		}
		if err := srv.Setup(w.Seed); err != nil {
			return 0, err
		}
		start := time.Now()
		for i, in := range reqs {
			srv.Process(fmt.Sprintf("r%06d", i+1), in)
		}
		return time.Since(start), nil
	}
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	for round := 0; round < 2; round++ {
		for side, record := range []bool{false, true} {
			d, err := pass(record)
			if err != nil {
				return 0, 0, err
			}
			best[side] = min(best[side], d)
		}
	}
	return us(best[0]) / float64(len(reqs)), 100 * (float64(best[1])/float64(best[0]) - 1), nil
}

// recordRequests caps the stream prefix the sequential passes serve.
const recordRequests = 1000

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func floats(xs []float64, prec int) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.*f", prec, x)
	}
	return out
}
