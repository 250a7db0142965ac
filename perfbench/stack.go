package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"orochi/internal/epoch"
	"orochi/internal/httpfront"
	"orochi/internal/lang"
	"orochi/internal/server"
	"orochi/internal/trace"
	"orochi/internal/workload"
)

// stackOptions selects what the benchmark composes around the
// production serving stack.
type stackOptions struct {
	epochEvents int
	// spans, when non-nil, wraps the collector and the executor in
	// timing handlers and the epoch manager in a timing tap.
	spans *spanTable
	// tamperNth > 0 puts a middleware between the collector and the
	// executor that corrupts the nth audited response, as
	// orochi-serve -tamper-request does.
	tamperNth int64
}

// stack is the serving side of orochi-serve -epoch-dir: the collector
// middleware in front of the executor behind a loopback net/http
// listener, with an epoch manager sealing into chunked CAS storage.
type stack struct {
	srv      *server.Server
	mgr      *epoch.Manager
	base     string
	hs       *http.Server
	served   chan error
	tap      *timingTap
	tampered atomic.Value // rid of the corrupted response (canary only)
	warmHash uint64       // FNV-64a of the warm-up response body
}

// startStack compiles the program, loads schema and seed, starts the
// epoch chain and the listener, and sends the stream's first request as
// the warm-up. Everything it does until that response arrives is the
// benchmark's set-up time. It first collects the heap and returns the
// freed memory to the OS, outside the timing, so that the previous stack
// and its audit, now garbage, leave neither a collection cycle nor the
// runtime's background scavenging running into this one's set-up and
// serving.
func startStack(w *workload.Workload, warm wireReq, dir string, o stackOptions) (*stack, time.Duration, error) {
	debug.FreeOSMemory()
	start := time.Now()
	prog, err := lang.Compile(w.App.Sources)
	if err != nil {
		return nil, 0, fmt.Errorf("compile %s: %w", w.App.Name, err)
	}
	srv := server.New(prog, server.Options{Record: true})
	if err := srv.Setup(w.App.Schema); err != nil {
		return nil, 0, err
	}
	if err := srv.Setup(w.Seed); err != nil {
		return nil, 0, err
	}
	mgr, err := epoch.StartManager(dir, srv, srv.Snapshot(), epoch.ManagerOptions{EpochEvents: o.epochEvents})
	if err != nil {
		return nil, 0, err
	}
	s := &stack{srv: srv, mgr: mgr, served: make(chan error, 1)}
	if o.spans != nil {
		// The manager installed itself as the collector's tap; wrap it.
		s.tap = &timingTap{inner: mgr}
		srv.Collector.SetTap(s.tap)
	}
	var exec http.Handler = httpfront.Exec(srv)
	if o.spans != nil {
		exec = o.spans.wrap(exec, o.spans.execStart, o.spans.exec)
	}
	if o.tamperNth > 0 {
		exec = s.tamper(o.tamperNth, exec)
	}
	front := httpfront.Collector(srv.Collector, exec)
	if o.spans != nil {
		front = o.spans.wrap(front, o.spans.collectorStart, o.spans.collector)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = mgr.Close()
		return nil, 0, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: httpfront.WithControl(http.NotFoundHandler(), front), ReadHeaderTimeout: 10 * time.Second}
	go func() { s.served <- s.hs.Serve(ln) }()

	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	h := fnv.New64a()
	if !send(&http.Client{Transport: tr, Timeout: 60 * time.Second}, s.base, warm, -1, h) {
		_, _ = s.close()
		return nil, 0, errors.New("warm-up request failed")
	}
	s.warmHash = h.Sum64()
	return s, time.Since(start), nil
}

// close drains the listener and seals the final epoch, returning how
// long Manager.Close took.
func (s *stack) close() (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for s.srv.InFlight() > 0 && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if cerr := s.mgr.Close(); err == nil {
		err = cerr
	}
	return time.Since(start), err
}

// tamper corrupts the body of the nth audited request between the
// collector and the executor: the trace and the client get the
// corrupted bytes, and the audit must REJECT naming the request.
func (s *stack) tamper(nth int64, next http.Handler) http.Handler {
	var count atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid, _, ok := httpfront.RecordedFrom(r.Context())
		if !ok || count.Add(1) != nth {
			next.ServeHTTP(w, r)
			return
		}
		buf := &bufferedResponse{ResponseWriter: w}
		next.ServeHTTP(buf, r)
		body := buf.buf.Bytes()
		if len(body) > 0 {
			body[0] ^= 0x20
		} else {
			body = []byte("tampered")
		}
		s.tampered.Store(rid)
		if buf.code != 0 && buf.code != http.StatusOK {
			w.WriteHeader(buf.code)
		}
		_, _ = w.Write(body)
	})
}

type bufferedResponse struct {
	http.ResponseWriter
	buf  bytes.Buffer
	code int
}

func (b *bufferedResponse) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) { return b.buf.Write(p) }

// spanTable holds the traced run's server-side spans in memory, one
// slot per request of the rung: the collector middleware's span
// (including everything below it) and the executor handler's.
type spanTable struct {
	origin time.Time
	// Start offsets from origin and durations, in nanoseconds; a zero
	// duration means the request left no span.
	collectorStart, collector, execStart, exec []atomic.Int64
}

func newSpanTable(n int) *spanTable {
	return &spanTable{origin: time.Now(),
		collectorStart: make([]atomic.Int64, n), collector: make([]atomic.Int64, n),
		execStart: make([]atomic.Int64, n), exec: make([]atomic.Int64, n)}
}

// wrap records next's spans into starts and durs, keyed by the
// request's sequence header. Requests without a valid sequence number
// (the warm-up) are not timed.
func (t *spanTable) wrap(next http.Handler, starts, durs []atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.Atoi(r.Header.Get(seqHeader))
		if err != nil || seq < 0 || seq >= len(durs) {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		starts[seq].Store(int64(start.Sub(t.origin)))
		durs[seq].Store(int64(time.Since(start)))
	})
}

// timingTap wraps the epoch manager's collector tap. Both methods run
// under the collector's lock, so the fields need no lock of their own;
// they are read after Manager.Close has detached the tap.
type timingTap struct {
	inner  trace.Tap
	events int
	event  time.Duration
	cuts   []time.Time // when each Cut began, in epoch order
	cut    time.Duration
}

func (t *timingTap) Event(ev trace.Event, open, total int) bool {
	start := time.Now()
	c := t.inner.Event(ev, open, total)
	t.event += time.Since(start)
	t.events++
	return c
}

func (t *timingTap) Cut(events []trace.Event) {
	start := time.Now()
	t.inner.Cut(events)
	t.cut += time.Since(start)
	t.cuts = append(t.cuts, start)
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
