package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sddict/internal/dictio"
	"sddict/internal/par"
	"sddict/internal/serve"
)

// topK is the top_k every /diagnose request sends.
const topK = 5

// mix is a workload's traffic shape. The shares are assumptions: the
// repository holds no production trace (see NOTES.md).
type mix struct {
	hot        int     // hot-set size per artifact; 0 draws every fault uniformly
	hotShare   float64 // share of requests drawn from the hot set
	noiseEvery int     // every noiseEvery-th request has one flipped response bit
}

// target is one served artifact, the hot set drawn from it, and the
// JSON around its request bodies' response lines.
type target struct {
	path           string
	art            *dictio.Artifact
	hot            []int
	prefix, suffix []byte
}

// newTargets wraps served artifacts, drawing each hot set from the seed.
func newTargets(seed int64, paths []string, arts []*dictio.Artifact, mx mix) []*target {
	ts := make([]*target, len(arts))
	for k, a := range arts {
		p, _ := json.Marshal(paths[k]) // a string always marshals
		t := &target{path: paths[k], art: a,
			prefix: append(append([]byte(`{"dictionary":`), p...), `,"responses":[`...),
			suffix: []byte(fmt.Sprintf(`],"top_k":%d}`, topK))}
		if n := len(a.Dict.Rows); mx.hot > 0 {
			t.hot = rand.New(rand.NewSource(par.Seed(^seed, k))).Perm(n)[:min(mx.hot, n)]
		}
		ts[k] = t
	}
	return ts
}

// request is one synthesized /diagnose observation.
type request struct {
	index  int
	target int
	fault  int
	noisy  bool
	body   []byte
}

// draws is a splitmix64 sequence, the per-request random source: cheap
// to seed, so synthesizing a request costs little next to serving it.
type draws uint64

func (d *draws) next() uint64 {
	*d += 0x9e3779b97f4a7c15
	z := uint64(*d)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (d *draws) intn(n int) int        { return int(d.next() % uint64(n)) }
func (d *draws) float() float64        { return float64(d.next()>>11) / (1 << 53) }
func newDraws(seed int64, i int) draws { return draws(par.Seed(seed, i)) }

// synth draws request i of the stream, rendering its body into buf. It depends only on (seed, i), so
// the stream is the same at any connection count. The observation is the
// planted fault's response as sddload fabricates it: the baseline vector
// where the fault's signature says "same", the baseline with output 0
// flipped where it says "different". A noisy request additionally flips
// one response bit, chosen so its signature bit flips too.
func synth(seed int64, i int, ts []*target, mx mix, buf []byte) request {
	d := newDraws(seed, i)
	r := request{index: i}
	if len(ts) > 1 {
		r.target = d.intn(len(ts))
	}
	t := ts[r.target]
	dict := t.art.Dict
	if len(t.hot) > 0 && d.float() < mx.hotShare {
		r.fault = t.hot[d.intn(len(t.hot))]
	} else {
		r.fault = d.intn(len(dict.Rows))
	}
	row := dict.Rows[r.fault]
	test, bit := -1, 0 // the flipped response bit of a noisy observation
	if mx.noiseEvery > 0 && i%mx.noiseEvery == mx.noiseEvery-1 {
		r.noisy = true
		test = d.intn(dict.NumTests)
		if row.Get(test) == 0 {
			bit = d.intn(dict.Outputs)
		}
	}
	b := append(buf[:0], t.prefix...)
	for j := 0; j < dict.NumTests; j++ {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		base, diff := dict.Baseline[j], row.Get(j)
		for o := 0; o < dict.Outputs; o++ {
			v := base.Get(o)
			if o == 0 {
				v ^= diff
			}
			if j == test && o == bit {
				v ^= 1
			}
			b = append(b, '0'+byte(v))
		}
		b = append(b, '"')
	}
	r.body = append(b, t.suffix...)
	return r
}

// checkReply verifies one /diagnose reply: HTTP 200, one result, and for
// a clean observation the planted fault among the exact candidates.
func checkReply(r request, status int, body []byte) (serve.DiagnoseResult, error) {
	if status != http.StatusOK {
		return serve.DiagnoseResult{}, fmt.Errorf("request %d: status %d: %.200s", r.index, status, body)
	}
	var resp serve.DiagnoseResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return serve.DiagnoseResult{}, fmt.Errorf("request %d: decoding reply: %w", r.index, err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0].Candidates) == 0 {
		return serve.DiagnoseResult{}, fmt.Errorf("request %d: reply without candidates", r.index)
	}
	res := resp.Results[0]
	if !r.noisy {
		if !res.Exact || !hasFault(res.Candidates, r.fault) {
			return res, fmt.Errorf("request %d: planted fault %d missing from exact candidates", r.index, r.fault)
		}
	}
	return res, nil
}

func hasFault(cs []serve.Candidate, f int) bool {
	for _, c := range cs {
		if c.Fault == f {
			return true
		}
	}
	return false
}

// loopResult is what a closed loop measured.
type loopResult struct {
	slices   [][]float64 // client-observed latency (µs) of each timed request, by the slice it started in
	timed    int
	attempts int // every request sent, warm-up included
	failed   int
	firstErr error
	noisy    int
	faults   int // distinct (artifact, fault) pairs in the measured requests
}

// slice is the sub-window the closed loop's latencies are grouped by.
const slice = time.Second

// closedLoop drives conns connections, each sending its next request as
// soon as the previous reply is read, for warm+window. Requests are
// numbered from one shared counter, so which bodies are sent does not
// depend on the connection count. Requests started during warm are
// checked but not timed. next renders request i into a buffer the
// connection reuses; check returns nil for a good reply.
func closedLoop(ctx context.Context, url string, conns int, warm, window time.Duration,
	next func(i int, buf []byte) request, check func(request, int, []byte) error) loopResult {
	var counter atomic.Int64
	start := time.Now()
	measureFrom, stop := start.Add(warm), start.Add(warm+window)
	nSlices := max(1, int(window/slice))
	type connResult struct {
		slices           [][]float64
		attempts, failed int
		firstErr         error
		noisy            int
		faults           map[[2]int]bool
	}
	out := make([]connResult, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(cr *connResult) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
			cr.faults = make(map[[2]int]bool)
			cr.slices = make([][]float64, nSlices)
			var buf []byte
			var reply bytes.Buffer
			for ctx.Err() == nil && time.Now().Before(stop) {
				r := next(int(counter.Add(1)-1), buf)
				buf = r.body
				t0 := time.Now()
				status, body, err := post(ctx, client, url, r.body, &reply)
				us := float64(time.Since(t0).Nanoseconds()) / 1e3
				cr.attempts++
				if err == nil {
					err = check(r, status, body)
				}
				if err != nil {
					cr.failed++
					if cr.firstErr == nil {
						cr.firstErr = err
					}
					continue
				}
				if t0.Before(measureFrom) {
					continue
				}
				k := min(int(t0.Sub(measureFrom)/slice), nSlices-1)
				cr.slices[k] = append(cr.slices[k], us)
				cr.faults[[2]int{r.target, r.fault}] = true
				if r.noisy {
					cr.noisy++
				}
			}
		}(&out[c])
	}
	wg.Wait()
	res := loopResult{slices: make([][]float64, nSlices)}
	faults := make(map[[2]int]bool)
	for _, cr := range out {
		for k := range cr.slices {
			res.slices[k] = append(res.slices[k], cr.slices[k]...)
			res.timed += len(cr.slices[k])
		}
		res.attempts += cr.attempts
		res.failed += cr.failed
		res.noisy += cr.noisy
		if res.firstErr == nil {
			res.firstErr = cr.firstErr
		}
		for k := range cr.faults {
			faults[k] = true
		}
	}
	res.faults = len(faults)
	return res
}

// post sends one request and reads the whole reply into out.
func post(ctx context.Context, client *http.Client, url string, body []byte, out *bytes.Buffer) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out.Reset()
	_, err = out.ReadFrom(resp.Body)
	return resp.StatusCode, out.Bytes(), err
}
