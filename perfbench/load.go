package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// record is one operation of a measured phase.
type record struct {
	req  *request
	res  result
	lat  time.Duration // closed loop: round trip; open loop: from the due time
	late time.Duration // how late the generator sent it
	at   time.Time     // send time
}

// phase is one measured stretch of a workload's stream.
type phase struct {
	recs    []record
	elapsed time.Duration
}

// closedLoop sends in.stream (cycling, from *next on) from one client for
// d: each request goes out when the previous one has been answered and
// checked. late is the gap between the two.
func closedLoop(s *server, in *inputs, next *int, d time.Duration) phase {
	start := time.Now()
	var ph phase
	prev := start
	for first := true; first || time.Since(start) < d; first = false {
		r := in.stream[*next%len(in.stream)]
		*next++
		at := time.Now()
		res := s.exec(in, r)
		ph.recs = append(ph.recs, record{req: r, res: res, lat: res.lat, late: at.Sub(prev), at: at})
		prev = time.Now()
	}
	ph.elapsed = time.Since(start)
	return ph
}

// openLoop sends in.stream[lo:hi] at in.arrivals (rebased to the phase
// start) from `clients` client goroutines. A request that waits for a free
// client is late; its latency counts from its due time.
func openLoop(s *server, in *inputs, lo, hi, clients int) phase {
	start := time.Now()
	base := time.Duration(0)
	if lo > 0 {
		base = in.arrivals[lo-1]
	}
	recs := make([]record, hi-lo)
	var idx atomic.Int64
	idx.Store(int64(lo))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(idx.Add(1) - 1)
				if k >= hi {
					return
				}
				due := start.Add(in.arrivals[k] - base)
				if w := time.Until(due); w > 0 {
					time.Sleep(w)
				}
				at := time.Now()
				res := s.exec(in, in.stream[k])
				recs[k-lo] = record{req: in.stream[k], res: res, lat: time.Since(due), late: at.Sub(due), at: at}
			}
		}()
	}
	wg.Wait()
	return phase{recs: recs, elapsed: time.Since(start)}
}

// arrivalsWithin returns the index one past the last arrival before d,
// from index lo on, with arrivals counted from in.arrivals[lo-1].
func arrivalsWithin(in *inputs, lo int, d time.Duration) int {
	base := time.Duration(0)
	if lo > 0 {
		base = in.arrivals[lo-1]
	}
	hi := lo
	for hi < len(in.arrivals) && in.arrivals[hi]-base < d {
		hi++
	}
	return hi
}

func (ph phase) failed() int {
	n := 0
	for _, r := range ph.recs {
		if r.res.err != nil {
			n++
		}
	}
	return n
}

func (ph phase) latenciesMs() []float64 {
	out := make([]float64, 0, len(ph.recs))
	for _, r := range ph.recs {
		if r.res.err == nil {
			out = append(out, ms(r.lat))
		}
	}
	return out
}

func (ph phase) cells() int64 {
	var n int64
	for _, r := range ph.recs {
		if r.res.err == nil {
			n += r.res.cells
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
