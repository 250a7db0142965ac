package main

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

func encodeStream(t *testing.T, s spec, seed int64, n int) []byte {
	t.Helper()
	st, err := generate(s, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSeededGeneration checks that a workload's input stream — seed
// SQL, request bytes and arrival schedule — is a function of the seed:
// the same seed gives the same bytes, another seed different ones.
func TestSeededGeneration(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			const n = 400
			a := encodeStream(t, s, 7, n)
			if b := encodeStream(t, s, 7, n); !bytes.Equal(a, b) {
				t.Fatal("same seed produced different input streams")
			}
			if c := encodeStream(t, s, 8, n); bytes.Equal(a, c) {
				t.Fatal("different seeds produced the same input stream")
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4) on a known input.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// encode writes the stream's seed SQL, wire bytes and schedule in a
// canonical form; the seeded-generation test compares it across runs.
func (st *stream) encode(wr io.Writer) error {
	for _, q := range st.w.Seed {
		if _, err := fmt.Fprintf(wr, "seed %q\n", q); err != nil {
			return err
		}
	}
	for i, r := range st.reqs {
		if _, err := fmt.Fprintf(wr, "%d %.9f %s %q %q %q\n", i, st.arrivals[i], r.Method, r.Target, r.Body, r.Cookie); err != nil {
			return err
		}
	}
	return nil
}
