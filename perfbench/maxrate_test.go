package main

import (
	"math"
	"testing"
	"time"
)

// rungAt is a rung served at rate whose requests all took p90 ms.
func rungAt(rate, p90 float64, failed int) *served {
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(p90 * float64(time.Millisecond))
	}
	return &served{rung: rungResult{rate: rate, sent: len(lat), failed: failed, latency: lat,
		late: make([]time.Duration, len(lat)), wall: time.Second}}
}

// TestMaxRate pins serve_max_rps's reading of the ladder: each rate's
// two best rungs, the isotonic fit of log(p90) over the rates and the
// limit's crossing.
func TestMaxRate(t *testing.T) {
	s := spec{refRate: 100, ladder: []float64{200, 300, 400}}
	logMid := func(lo, hi float64) float64 { // rate where log p90 crosses the limit
		return (math.Log(limitMS) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
	}
	cases := []struct {
		name  string
		rungs []*served
		want  float64
	}{
		{"rising", []*served{rungAt(100, 5, 0), rungAt(200, 10, 0), rungAt(300, 20, 0), rungAt(400, 200, 0)},
			300 + 100*logMid(20, 200)},
		// 300 reads as the geometric mean of 10 and 40.
		{"a rate reads as its two best rungs", []*served{rungAt(100, 5, 0), rungAt(200, 10, 0), rungAt(300, 40, 0), rungAt(300, 10, 0), rungAt(300, 90, 0), rungAt(300, 40, 0), rungAt(400, 200, 0)},
			300 + 100*logMid(20, 200)},
		// 300 reads above 400: the two are pooled into one level.
		{"pooled", []*served{rungAt(100, 5, 0), rungAt(200, 10, 0), rungAt(300, 400, 0), rungAt(400, 100, 0)},
			200 + 100*logMid(10, 200)},
		{"none over the limit", []*served{rungAt(100, 5, 0), rungAt(200, 10, 0), rungAt(300, 20, 0), rungAt(400, 30, 0)}, 400},
		{"reference over the limit", []*served{rungAt(100, 60, 0), rungAt(200, 80, 0), rungAt(300, 90, 0), rungAt(400, 100, 0)}, 0},
		{"failed request", []*served{rungAt(100, 5, 0), rungAt(200, 10, 0), rungAt(300, 20, 1), rungAt(400, 30, 0)}, 200},
		{"a failed rung fails its rate", []*served{rungAt(100, 5, 0), rungAt(200, 10, 0), rungAt(300, 20, 0), rungAt(300, 20, 1), rungAt(400, 30, 0)}, 200},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := maxRate(s, c.rungs, &report{}); math.Abs(got-c.want) > 1e-9 {
				t.Fatalf("maxRate = %v, want %v", got, c.want)
			}
		})
	}
}
