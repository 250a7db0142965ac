package main

import (
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// seqHeader carries a request's sequence number within a rung so the
// traced run can match client latencies to server-side spans.
const seqHeader = "X-Bench-Seq"

// failedLatency marks a request that got no valid response; it misses
// every latency limit.
const failedLatency = time.Duration(1<<63 - 1)

// rungResult is what one open-loop rung measured from the client side.
type rungResult struct {
	rate   float64
	sent   int
	failed int
	// latency is each request's time from when it was due to when its
	// response was read in full (failedLatency on failure).
	latency []time.Duration
	// late is how long after its due time each request was sent.
	late []time.Duration
	// sendAt and doneAt are each request's send and completion times,
	// relative to the rung start; done-minus-send is the client-side
	// service time the traced run splits into layers.
	sendAt, doneAt []time.Duration
	// backlogMax is the most requests ever due but not yet sent;
	// backlogEnd counts those still unsent when the last one fell due.
	backlogMax, backlogEnd int
	began                  time.Time     // rung start
	wall                   time.Duration // rung start to last response
	cpu                    time.Duration // process user+sys CPU over the rung
	bodies                 []uint64      // FNV-64a of each response body
}

// openLoop sends reqs[i] at start+due[i] over conns keep-alive
// connections, each driven by one goroutine. When every connection is
// busy, due requests queue in the generator; latency is timed from the
// due time, so the wait a stall imposes on later requests counts.
func openLoop(base string, reqs []wireReq, firstSeq int, due []time.Duration, conns int) rungResult {
	n := len(reqs)
	res := rungResult{
		sent:    n,
		latency: make([]time.Duration, n),
		late:    make([]time.Duration, n),
		sendAt:  make([]time.Duration, n),
		doneAt:  make([]time.Duration, n),
		bodies:  make([]uint64, n),
	}
	var next atomic.Int64
	var failed atomic.Int64
	backlog := make([]int, conns)
	var wg sync.WaitGroup
	cpu0 := processCPU()
	start := time.Now()
	for c := 0; c < conns; c++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer tr.CloseIdleConnections()
			h := fnv.New64a()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if d := due[i] - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(start)
				// Requests i.. are not yet sent; those already due form
				// the generator's backlog.
				dueNow := sort.Search(n, func(k int) bool { return due[k] > sent })
				backlog[c] = max(backlog[c], dueNow-i)
				h.Reset()
				ok := send(client, base, reqs[i], firstSeq+i, h)
				done := time.Since(start)
				res.late[i] = sent - due[i]
				res.sendAt[i] = sent
				res.doneAt[i] = done
				res.bodies[i] = h.Sum64()
				if ok {
					res.latency[i] = done - due[i]
				} else {
					res.latency[i] = failedLatency
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	res.began = start
	res.wall = time.Since(start)
	res.cpu = processCPU() - cpu0
	res.failed = int(failed.Load())
	for _, b := range backlog {
		res.backlogMax = max(res.backlogMax, b)
	}
	last := due[n-1]
	for _, s := range res.sendAt {
		if s > last {
			res.backlogEnd++
		}
	}
	return res
}

// send issues one request and hashes the response body into h. A
// transport error or a status other than 200 is a failed request.
func send(client *http.Client, base string, w wireReq, seq int, h io.Writer) bool {
	req, err := w.newRequest(base, seq)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return false
	}
	return resp.StatusCode == http.StatusOK
}
