package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"time"

	"orochi/internal/httpfront"
	"orochi/internal/trace"
	"orochi/internal/workload"
)

// spec is one benchmark workload: how its request stream is generated
// and the fixed rates and latency limit its serve metrics use.
type spec struct {
	name string
	// refRate is the reference rate (req/s), low enough that queueing
	// adds little to the service time. serve_p50_ms, serve_p90_ms and
	// serve_cpu_us_per_req are measured there.
	refRate float64
	// ladder holds the higher rates (req/s), ascending, that bracket
	// the workload's serve_max_rps on a 2-core host: the fitted curve is
	// read between rungs, so a knee below the first ladder rate or above
	// the last would be read from too wide a gap or not at all. As each
	// rate reads as its two best rungs, the knee sits near what the host
	// serves in its faster stretches.
	ladder []float64
	build  func(seed int64, n int) *workload.Workload
}

var specs = []spec{
	{name: "wiki", refRate: 250, ladder: []float64{900, 1100, 1300, 1500}, build: buildWiki},
	{name: "forum", refRate: 250, ladder: []float64{1100, 1300, 1500, 1700}, build: buildForum},
	{name: "hotcrp", refRate: 150, ladder: []float64{450, 575, 700, 825}, build: buildHotCRP},
}

// limitMS is the p90 latency limit at which serve_max_rps is read.
const limitMS = 50.0

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q (want wiki, forum or hotcrp)", name)
}

// schedule is the order in which a run serves its rungs: the ladder
// four times, climbing and descending in turn, with the reference rate
// before each of the first three passes, as in
// ref, L1..L4, ref, L4..L1, ref, L1..L4, L4..L1. Every rate is served
// early, midway and late in the run, so a slow stretch of the host
// hits some of its rungs rather than all of them.
func (s spec) schedule() []float64 {
	var out []float64
	for pass := 0; pass < 4; pass++ {
		if pass < 3 {
			out = append(out, s.refRate)
		}
		for i := range s.ladder {
			if pass%2 == 1 {
				i = len(s.ladder) - 1 - i
			}
			out = append(out, s.ladder[i])
		}
	}
	return out
}

// requestsFor sizes one rung's request stream so that serving the whole
// schedule at its offered rates takes about `seconds`. Every rung
// serves the same n requests: per-request cost grows with the tables
// the stream writes, so the stream length must not depend on the rate.
func (s spec) requestsFor(seconds int) int {
	var perReq float64
	for _, r := range s.schedule() {
		perReq += 1 / r
	}
	return max(64, int(float64(seconds)/perReq))
}

// buildWiki is the paper's MediaWiki mix (200 pages, Zipf β = 0.53,
// ~92% views served from the APC cache, 4% edits) at n requests.
func buildWiki(seed int64, n int) *workload.Workload {
	p := workload.DefaultWikiParams()
	p.Requests = n
	p.Seed = seed
	return workload.Wiki(p)
}

// buildForum is the paper's phpBB mix (83 users log in, then 40:1
// guest-to-registered topic views with replies) at n requests.
func buildForum(seed int64, n int) *workload.Workload {
	p := workload.DefaultForumParams()
	p.Requests = n
	p.Seed = seed
	return workload.Forum(p)
}

// buildHotCRP is the paper's HotCRP mix in its paper order —
// submissions with 1–20 updates, two versions of three reviews per
// paper, then reviewer browsing — shrunk to n requests. It keeps the
// paper's update counts and reviewers per paper, but sizes the
// conference so that its writes (submissions, updates and reviews) come
// closest to hotcrpWriteShare of the stream. At this size a conference
// has a dozen papers, and with a fixed paper count their random update
// counts would swing the write burst, and with it the bytes stored per
// request, by ±11% from seed to seed.
func buildHotCRP(seed int64, n int) *workload.Workload {
	target := int(hotcrpWriteShare * float64(n))
	var best *workload.Workload
	bestGap := n
	for papers := max(3, n/90); papers <= max(3, n/40); papers++ {
		w := hotcrpConference(seed, n, papers)
		writes := 0
		for _, in := range w.Requests {
			if in.Script == "submit" || in.Script == "review" {
				writes++
			}
		}
		if gap := abs(writes - target); gap < bestGap {
			best, bestGap = w, gap
		}
	}
	return best
}

// hotcrpWriteShare is the share of writes in the HotCRP stream: the
// expected share with one paper per 60 requests.
const hotcrpWriteShare = 0.3

// hotcrpConference is the HotCRP mix with the given number of papers,
// cut to its first n requests.
func hotcrpConference(seed int64, n, papers int) *workload.Workload {
	def := workload.DefaultHotCRPParams()
	p := def
	p.Seed = seed
	p.Papers = papers
	p.Reviewers = max(3, p.Papers*def.Reviewers/def.Papers)
	// Enough views that the stream reaches n after the write burst;
	// the tail of the browsing phase is cut off below.
	p.ViewsPerReviewer = n/p.Reviewers + 1
	w := workload.HotCRP(p)
	if len(w.Requests) > n {
		w.Requests = w.Requests[:n]
	}
	return w
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// wireReq is one request as it goes on the wire. Rendering every
// request once, before serving, keeps request construction out of the
// timed path and makes the input stream comparable byte for byte.
type wireReq struct {
	Method string
	Target string // path and query, relative to the server's base URL
	Body   string
	Cookie string // Cookie header, cookies sorted by name
}

// render maps a workload input onto its HTTP request with the repo's
// canonical mapping (httpfront.NewRequest), fixing the cookie order.
func render(in trace.Input) (wireReq, error) {
	req, err := httpfront.NewRequest("", in)
	if err != nil {
		return wireReq{}, err
	}
	w := wireReq{Method: req.Method, Target: req.URL.String()}
	if req.Body != nil {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return wireReq{}, err
		}
		w.Body = string(body)
	}
	cookies := req.Cookies()
	sort.Slice(cookies, func(i, j int) bool { return cookies[i].Name < cookies[j].Name })
	parts := make([]string, len(cookies))
	for i, c := range cookies {
		parts[i] = c.String()
	}
	w.Cookie = strings.Join(parts, "; ")
	return w, nil
}

// newRequest builds the http.Request for w against base, tagged with
// the request's sequence number for the traced run's span matching.
// The tag is a header, which the collector does not record.
func (w wireReq) newRequest(base string, seq int) (*http.Request, error) {
	var body io.Reader = http.NoBody
	if w.Body != "" {
		body = strings.NewReader(w.Body)
	}
	req, err := http.NewRequest(w.Method, base+w.Target, body)
	if err != nil {
		return nil, err
	}
	if w.Body != "" {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	if w.Cookie != "" {
		req.Header.Set("Cookie", w.Cookie)
	}
	req.Header.Set(seqHeader, fmt.Sprint(seq))
	return req, nil
}

// stream is a workload's generated input: the program's requests in
// issue order and the open-loop arrival offsets at unit rate.
type stream struct {
	w    *workload.Workload
	reqs []wireReq
	// arrivals[i] is request i's due time at 1 req/s; a rung at rate r
	// sends request i at arrivals[i]/r after the rung starts.
	arrivals []float64
}

// generate builds the seeded input stream of n requests. The same
// (spec, seed, n) always yields the same bytes.
func generate(s spec, seed int64, n int) (*stream, error) {
	w := s.build(seed, n)
	if len(w.Requests) != n {
		return nil, fmt.Errorf("%s: generated %d requests, want %d", s.name, len(w.Requests), n)
	}
	st := &stream{w: w, reqs: make([]wireReq, n), arrivals: make([]float64, n)}
	for i, in := range w.Requests {
		r, err := render(in)
		if err != nil {
			return nil, fmt.Errorf("%s: render request %d: %w", s.name, i, err)
		}
		st.reqs[i] = r
	}
	// Poisson arrivals: exponential gaps from a stream of its own, so
	// the schedule does not shift when a generator draws differently.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_a771_7a15))
	t := 0.0
	for i := range st.arrivals {
		t += rng.ExpFloat64()
		st.arrivals[i] = t
	}
	return st, nil
}

// offsets returns the due times of requests from..len-1 at rate r,
// relative to the first of them.
func (st *stream) offsets(from int, rate float64) []time.Duration {
	out := make([]time.Duration, len(st.arrivals)-from)
	base := st.arrivals[from]
	for i := range out {
		out[i] = time.Duration((st.arrivals[from+i] - base) / rate * float64(time.Second))
	}
	return out
}
