package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"orochi/internal/cas"
	"orochi/internal/epoch"
	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/trace"
	"orochi/internal/verifier"
)

// chainAudit is the outcome of auditing one sealed chain the way
// orochi-audit -epochs does.
type chainAudit struct {
	verdicts []epoch.Verdict
	accepted bool
	requests int // requests in the sealed epochs
	wall     time.Duration
	cpu      time.Duration
	allocs   uint64 // heap allocations over the drain (traced run only)
}

// auditChain verifies every sealed epoch of dir with
// epoch.Auditor.DrainSealed under the production defaults: two epochs
// loaded ahead, checkpoints on, and the verifier's default Workers (all
// CPUs) and engine. prog is compiled once per run and shared by its
// audits, as a long-running auditor's program is. obs, when non-nil, is
// the traced run's phase observer.
func auditChain(ctx context.Context, prog *lang.Program, dir string, obs verifier.Observer, countAllocs bool) (chainAudit, error) {
	a := epoch.NewAuditor(prog, dir, epoch.AuditorOptions{Checkpoints: true, Observer: obs})
	if log := a.Decisions(); log != nil {
		defer log.Close()
	}
	var m0 runtimeCounters
	if countAllocs {
		m0 = readRuntime()
	}
	cpu0 := processCPU()
	start := time.Now()
	_, err := a.DrainSealed(ctx, 200*time.Millisecond, nil)
	out := chainAudit{wall: time.Since(start), cpu: processCPU() - cpu0}
	if err != nil {
		return out, fmt.Errorf("audit %s: %w", dir, err)
	}
	if countAllocs {
		out.allocs = readRuntime().mallocs - m0.mallocs
	}
	out.verdicts = a.Verdicts()
	out.accepted = a.ChainAccepted() && len(out.verdicts) > 0
	for _, v := range out.verdicts {
		out.requests += v.Requests
	}
	return out, nil
}

// fullEpochMS is the median verifier wall time of the drain's full
// epochs — all but the chain's last, the remainder Manager.Close seals.
// The median is taken per drain first because epochs differ by position
// (the first one fills the application's caches): with an even number
// of full epochs per chain, a median over all of a run's epochs would
// flip between positions from run to run.
func (a chainAudit) fullEpochMS() float64 {
	vs := a.verdicts
	if len(vs) > 1 {
		vs = vs[:len(vs)-1]
	}
	times := make([]float64, len(vs))
	for i, v := range vs {
		times[i] = ms(v.AuditTime)
	}
	return median(times)
}

// sealedBodies returns the FNV-64a hashes of every response body the
// chain sealed, sorted, so they can be compared with what the clients
// received.
func sealedBodies(dir string) ([]uint64, error) {
	sealed, err := epoch.ListSealed(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	h := fnv.New64a()
	for _, s := range sealed {
		l, err := epoch.Load(s)
		if err != nil {
			return nil, err
		}
		for _, ev := range l.Trace.Events {
			if ev.Kind != trace.Response {
				continue
			}
			h.Reset()
			_, _ = h.Write([]byte(ev.Body))
			out = append(out, h.Sum64())
		}
	}
	slices.Sort(out)
	return out, nil
}

// phaseObserver is the traced run's verifier.Observer: it sums phase
// wall times and counts replayed ops. Op callbacks fire concurrently
// from the verifier's workers.
type phaseObserver struct {
	mu     sync.Mutex
	phases map[string]time.Duration
	ops    atomic.Int64
}

func newPhaseObserver() *phaseObserver {
	return &phaseObserver{phases: map[string]time.Duration{}}
}

func (p *phaseObserver) PhaseStart(string, int) {}

func (p *phaseObserver) PhaseEnd(phase string, took time.Duration) {
	p.mu.Lock()
	p.phases[phase] += took
	p.mu.Unlock()
}

func (p *phaseObserver) GroupReexecuted(string, uint64, int) {}
func (p *phaseObserver) OpsReplayed(ops int)                 { p.ops.Add(int64(ops)) }
func (p *phaseObserver) Verdict(bool, string)                {}

func (p *phaseObserver) phase(name string) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.phases[name]
}

func (p *phaseObserver) total() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var t time.Duration
	for _, d := range p.phases {
		t += d
	}
	return t
}

// timedStore is a cas.Store that times and counts chunk reads. The
// decomposition pass loads epochs one at a time, so it needs no lock.
type timedStore struct {
	cas.Store
	calls int
	bytes int64
	took  time.Duration
}

func (s *timedStore) Get(sha string) ([]byte, error) {
	start := time.Now()
	data, err := s.Store.Get(sha)
	s.took += time.Since(start)
	s.calls++
	s.bytes += int64(len(data))
	return data, err
}

// decomposition splits one chain audit into its layers by running the
// auditor's steps from their public functions, one epoch after the
// other: epoch.LoadFrom through a timing chunk store, the verifier with
// a phase observer, and the snapshot hand-off to the next epoch.
type decomposition struct {
	wall    time.Duration
	load    time.Duration // epoch.LoadFrom, including chunk reads
	store   *timedStore
	verify  time.Duration // verifier.AuditContext
	phases  time.Duration // sum of the observer's phase times
	handoff time.Duration // Result.FinalSnapshot + epoch.WriteCheckpoint
}

func decompose(ctx context.Context, prog *lang.Program, dir, scratch string) (decomposition, error) {
	var d decomposition
	sealed, err := epoch.ListSealed(dir)
	if err != nil {
		return d, err
	}
	fs, err := epoch.OpenChainStore(dir)
	if err != nil {
		return d, err
	}
	d.store = &timedStore{Store: fs}
	start := time.Now()
	var init *object.Snapshot
	for _, s := range sealed {
		t0 := time.Now()
		l, err := epoch.LoadFrom(s, d.store)
		d.load += time.Since(t0)
		if err != nil {
			return d, err
		}
		if init == nil {
			init = l.Init
		}
		obs := newPhaseObserver()
		t1 := time.Now()
		res, err := verifier.AuditContext(ctx, prog, l.Trace, l.Reports, init, verifier.Options{Observer: obs})
		d.verify += time.Since(t1)
		if err != nil {
			return d, err
		}
		if !res.Accepted {
			return d, fmt.Errorf("decomposition: epoch %d rejected: %s", s.Number, res.Reason)
		}
		d.phases += obs.total()
		t2 := time.Now()
		snap, err := res.FinalSnapshot()
		if err == nil {
			err = epoch.WriteCheckpoint(scratch, s.Number, snap)
		}
		d.handoff += time.Since(t2)
		if err != nil {
			return d, err
		}
		init = snap
	}
	d.wall = time.Since(start)
	return d, nil
}

// canary serves a short stretch of the stream through a stack whose
// middleware corrupts one response, then audits it. The audit must
// REJECT in Phase-3 re-execution, naming the corrupted request.
func canary(ctx context.Context, st *stream, prog *lang.Program, dir string, n int, nth int64) (ok bool, detail string, setup time.Duration, err error) {
	s, setup, err := startStack(st.w, st.reqs[0], dir, stackOptions{epochEvents: 1 << 20, tamperNth: nth})
	if err != nil {
		return false, "", 0, err
	}
	r := openLoop(s.base, st.reqs[1:n], 1, make([]time.Duration, n-1), 1)
	if _, err := s.close(); err != nil {
		return false, "", 0, err
	}
	if r.failed > 0 {
		return false, "", 0, fmt.Errorf("canary: %d requests failed", r.failed)
	}
	rid, _ := s.tampered.Load().(string)
	a, err := auditChain(ctx, prog, dir, nil, false)
	if err != nil {
		return false, "", 0, err
	}
	if a.accepted || len(a.verdicts) == 0 {
		return false, fmt.Sprintf("tampered request %s was ACCEPTED", rid), setup, nil
	}
	v := a.verdicts[len(a.verdicts)-1]
	if v.Forensics == nil {
		return false, "REJECT without forensics: " + v.Reason, setup, nil
	}
	f := v.Forensics
	detail = fmt.Sprintf("REJECT epoch %d phase=%s check=%s request=%s (tampered %s)", v.Epoch, f.Phase, f.Check, f.RequestID, rid)
	return rid != "" && f.RequestID == rid && f.Phase == verifier.PhaseReExec, detail, setup, nil
}

// runtimeCounters are the Go runtime counters the traced run reports.
type runtimeCounters struct {
	mallocs uint64
	pauseNS uint64
}

func readRuntime() runtimeCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeCounters{mallocs: m.Mallocs, pauseNS: m.PauseTotalNs}
}
