package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"qmatch/internal/serve"
)

const testRoot = ".."

// digest hashes everything a workload sends: set-up, warm-up and stream
// bodies in order, and the open-loop schedule.
func digest(in *inputs) [32]byte {
	h := sha256.New()
	for _, rs := range [][]*request{in.setup, in.warm, in.stream} {
		for _, r := range rs {
			fmt.Fprintf(h, "%s %s %d\n", r.method, r.path, len(r.body))
			h.Write(r.body)
		}
	}
	for _, a := range in.arrivals {
		fmt.Fprintf(h, "%d\n", a)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			a, err := generate(w, 7, testRoot, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			b, err := generate(w, 7, testRoot, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if digest(a) != digest(b) {
				t.Fatal("seed 7 generated two different request streams")
			}
			c, err := generate(w, 8, testRoot, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if digest(a) == digest(c) {
				t.Fatal("seeds 7 and 8 generated the same request stream")
			}
		})
	}
}

func flip(b []byte) []byte {
	c := append([]byte(nil), b...)
	i := bytes.LastIndexByte(c, '.') + 1 // a score digit
	c[i] ^= 1
	return c
}

func TestChecksRejectCorruptedBodies(t *testing.T) {
	mix, err := generate("serve-mix", 1, testRoot, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r := mix.stream[0]
	good := mix.pairs[r.pair].want
	if _, _, err := mix.check(r, http.StatusOK, nil, good); err != nil {
		t.Fatalf("correct /v1/match body rejected: %v", err)
	}
	if _, _, err := mix.check(r, http.StatusOK, nil, flip(good)); !errors.Is(err, errWrongOutput) {
		t.Fatalf("corrupted /v1/match body: got %v, want a wrong-output error", err)
	}
	if _, _, err := mix.check(r, http.StatusTooManyRequests, nil, good); err == nil {
		t.Fatal("a 429 passed the check")
	}

	reg, err := generate("registry-search", 1, testRoot, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reg.stream {
		if r.kind != "regmatch" {
			continue
		}
		hdr := http.Header{"X-Qmatchd-Cache": {"hit"}}
		good := reg.reg.wantPair[r.id][r.version]
		if _, _, err := reg.check(r, http.StatusOK, hdr, good); err != nil {
			t.Fatalf("correct registry match rejected: %v", err)
		}
		if _, _, err := reg.check(r, http.StatusOK, hdr, flip(good)); !errors.Is(err, errWrongOutput) {
			t.Fatalf("corrupted registry match: got %v, want a wrong-output error", err)
		}
		// The other version's answer is what a stale cache would serve.
		if other := reg.reg.wantPair[r.id]; len(other) > 1 && !bytes.Equal(other[0], other[1]) {
			if _, _, err := reg.check(r, http.StatusOK, hdr, other[1-r.version]); !errors.Is(err, errWrongOutput) {
				t.Fatalf("stale registry match: got %v, want a wrong-output error", err)
			}
		}
	}

	grid, err := generate("job-grid", 1, testRoot, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	stream := func(cells [][]byte, status string) []byte {
		var b bytes.Buffer
		for i, c := range cells {
			b.Write(mustJSON(serve.JobResultLine{Cell: i, Source: i / gridN, Target: i % gridN, Report: json.RawMessage(c)}))
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, `{"done":true,"status":%q,"cells":%d}`+"\n", status, len(cells))
		return b.Bytes()
	}
	want := grid.gridWant[0]
	if err := checkJob(http.StatusOK, stream(want, "completed"), want); err != nil {
		t.Fatalf("correct job stream rejected: %v", err)
	}
	bad := append([][]byte(nil), want...)
	bad[5] = flip(bad[5])
	if err := checkJob(http.StatusOK, stream(bad, "completed"), want); !errors.Is(err, errWrongOutput) {
		t.Fatalf("corrupted job cell: got %v, want a wrong-output error", err)
	}
	if err := checkJob(http.StatusOK, stream(want[:15], "completed"), want); !errors.Is(err, errWrongOutput) {
		t.Fatalf("short job stream: got %v, want a wrong-output error", err)
	}
	if err := checkJob(http.StatusOK, stream(want, "failed"), want); !errors.Is(err, errWrongOutput) {
		t.Fatalf("failed job trailer: got %v, want a wrong-output error", err)
	}
}

func TestDecompositionReproducesEngine(t *testing.T) {
	mix, err := generate("serve-mix", 3, testRoot, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := newReplayer(&tracer{epoch: time.Now()}, newCollector())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range mix.pairs {
		if err := rp.replay(i, p); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(rp.col.samples["core.fill_ms"]); got != len(mix.pairs) {
		t.Fatalf("%d fill samples for %d replays", got, len(mix.pairs))
	}
}

// TestServeMixSmoke drives the in-process server briefly and expects every
// response to pass its check.
func TestServeMixSmoke(t *testing.T) {
	in, err := generate("serve-mix", 5, testRoot, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := setup(in)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	next := 0
	ph := measure(s, in, &next, 500*time.Millisecond)
	if len(ph.recs) == 0 || ph.failed() != 0 {
		t.Fatalf("%d requests, %d failed: %v", len(ph.recs), ph.failed(), firstErr(ph))
	}
}
