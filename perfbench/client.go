package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"qmatch"
	"qmatch/internal/jobs"
	"qmatch/internal/registry"
	"qmatch/internal/serve"
)

// server is qmatchd in-process: the production handler behind a loopback
// listener, with the shipped default configuration and an in-memory
// registry, plus the client the load generator drives it with.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	tr   *http.Transport
	cl   *http.Client
	// scrape reads /metrics during a traced phase on its own connection,
	// so it never takes a load client's.
	scrape *http.Client
	done   chan struct{}
}

func startServer() (*server, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(),
		done: make(chan struct{})}
	// At most one connection per CPU: the load never uses more clients.
	s.tr = &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU(),
		DisableCompression: true}
	s.cl = &http.Client{Transport: s.tr}
	s.scrape = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close shuts the listener and the job workers down and waits for both.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a straggling connection is dropped by Close below
	_ = s.hs.Close()
	<-s.done
	s.tr.CloseIdleConnections()
	s.scrape.CloseIdleConnections()
	s.srv.Close()
}

func (s *server) do(method, path string, body []byte) (int, http.Header, []byte, error) {
	return s.doWith(s.cl, method, path, body)
}

func (s *server) doWith(cl *http.Client, method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// metrics scrapes /metrics into name → value for the unlabelled series.
func (s *server) metrics() (map[string]float64, error) {
	st, _, b, err := s.doWith(s.scrape, "GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", st)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		if f := strings.Fields(line); len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, sc.Err()
}

// result is the client-side view of one completed operation.
type result struct {
	lat   time.Duration
	err   error // transport error, refusal, or wrong output
	cells int64 // pair-table cells the server computed for it
	info  info
}

// info carries what a response says about the layers it went through.
type info struct {
	cacheHit  *bool
	search    *registry.SearchStats
	rematched []registry.RefreshStat
	jobID     string
	trailerAt time.Time
}

// exec sends one operation and checks its output. A job is submitted,
// then its result stream is read to the trailer.
func (s *server) exec(in *inputs, r *request) result {
	start := time.Now()
	var res result
	if r.kind == "job" {
		st, _, b, err := s.do(r.method, r.path, r.body)
		if err == nil && st != http.StatusAccepted {
			err = fmt.Errorf("job submit: status %d: %.200s", st, b)
		}
		var p jobs.Progress
		if err == nil {
			err = json.Unmarshal(b, &p)
		}
		if err == nil {
			res.info.jobID = p.ID
			st, _, b, err = s.do("GET", "/v1/jobs/"+p.ID+"/results", nil)
			res.info.trailerAt = time.Now()
			if err == nil {
				err = checkJob(st, b, in.gridWant[r.version])
			}
		}
		res.lat, res.err, res.cells = time.Since(start), err, r.cells
		return res
	}
	st, hdr, b, err := s.do(r.method, r.path, r.body)
	res.lat = time.Since(start)
	if err != nil {
		res.err = err
		return res
	}
	res.info, res.cells, res.err = in.check(r, st, hdr, b)
	return res
}

var errWrongOutput = errors.New("wrong output")

// check verifies one response against the answer computed in set-up and
// returns what it reports about the layers, with the cells computed.
func (in *inputs) check(r *request, status int, hdr http.Header, body []byte) (info, int64, error) {
	var inf info
	want := http.StatusOK
	if r.create {
		want = http.StatusCreated
	}
	if status != want {
		return inf, 0, fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, status, body)
	}
	switch r.kind {
	case "match":
		if !bytes.Equal(body, in.pairs[r.pair].want) {
			return inf, 0, fmt.Errorf("%w: /v1/match %s differs from the library report", errWrongOutput, in.pairs[r.pair].name)
		}
		return inf, r.cells, nil
	case "regmatch":
		hit := hdr.Get("X-Qmatchd-Cache") == "hit"
		inf.cacheHit = &hit
		var rep qmatch.Report
		if err := json.Unmarshal(body, &rep); err != nil {
			return inf, 0, fmt.Errorf("%w: %s: %v", errWrongOutput, r.path, err)
		}
		rep.Rematch = nil // a refreshed report carries its rematch breakdown
		if !bytes.Equal(reportJSON(&rep), in.reg.wantPair[r.id][r.version]) {
			return inf, 0, fmt.Errorf("%w: %s (source version %d) differs from a from-scratch match", errWrongOutput, r.path, r.version)
		}
		if hit {
			return inf, 0, nil
		}
		return inf, r.cells, nil
	case "search":
		var resp serve.SearchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return inf, 0, fmt.Errorf("%w: search: %v", errWrongOutput, err)
		}
		if len(resp.Results) == 0 || resp.Results[0].ID != in.reg.wantTop[r.version] {
			return inf, 0, fmt.Errorf("%w: search %d: top-1 is not %s", errWrongOutput, r.version, in.reg.wantTop[r.version])
		}
		inf.search = &resp.Stats
		var cells int64
		for _, res := range resp.Results {
			cells += int64(in.reg.size[res.ID]) * in.reg.querySize[r.version]
		}
		return inf, cells, nil
	case "put":
		var resp serve.SchemaEntryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return inf, 0, fmt.Errorf("%w: put: %v", errWrongOutput, err)
		}
		if resp.ID != r.id || (!r.create && len(resp.Rematched) == 0) {
			return inf, 0, fmt.Errorf("%w: re-PUT %s refreshed no cached report", errWrongOutput, r.id)
		}
		inf.rematched = resp.Rematched
		var cells int64
		for _, rs := range resp.Rematched {
			cells += rs.Rematch.RescoredCells
		}
		return inf, cells, nil
	}
	return inf, 0, fmt.Errorf("unknown request kind %q", r.kind)
}

// checkJob verifies a job's NDJSON result stream: every cell equals the
// library's MatchCompiled answer in want, and the trailer reports
// completed with all cells.
func checkJob(status int, body []byte, want [][]byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("job results: status %d: %.200s", status, body)
	}
	seen := 0
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	for i, line := range lines {
		if i == len(lines)-1 {
			var tr serve.JobResultTrailer
			if err := json.Unmarshal(line, &tr); err != nil || !tr.Done {
				return fmt.Errorf("%w: job stream ends without a trailer", errWrongOutput)
			}
			if tr.Status != jobs.StatusCompleted || tr.Cells != len(want) || seen != len(want) {
				return fmt.Errorf("%w: job trailer %s with %d/%d cells (%d streamed)", errWrongOutput, tr.Status, tr.Cells, len(want), seen)
			}
			return nil
		}
		var rl serve.JobResultLine
		if err := json.Unmarshal(line, &rl); err != nil {
			return fmt.Errorf("%w: job line %d: %v", errWrongOutput, i, err)
		}
		if rl.Cell != seen || rl.Cell >= len(want) || !bytes.Equal(rl.Report, want[rl.Cell]) {
			return fmt.Errorf("%w: job cell %d differs from Engine.MatchCompiled", errWrongOutput, rl.Cell)
		}
		seen++
	}
	return fmt.Errorf("%w: empty job stream", errWrongOutput)
}
