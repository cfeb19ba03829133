package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sddict/internal/core"
	"sddict/internal/dictio"
	"sddict/internal/logic"
	"sddict/internal/serve"
)

// testTargets returns two small hand-built artifacts: 6 faults over 40
// tests with 3 outputs, baselines differing from fault-free on some tests.
func testTargets() []*target {
	var arts []*dictio.Artifact
	var paths []string
	for k := 0; k < 2; k++ {
		d := &core.Compiled{Kind: core.SameDiff, NumTests: 40, Outputs: 3}
		for j := 0; j < d.NumTests; j++ {
			ff := logic.NewBitVec(d.Outputs)
			ff.Set(j%3, 1)
			base := ff.Clone()
			if j%5 == k {
				base.Set((j+1)%3, 1)
			}
			d.FaultFree, d.Baseline = append(d.FaultFree, ff), append(d.Baseline, base)
		}
		for f := 0; f < 6; f++ {
			row := logic.NewBitVec(d.NumTests)
			for j := 0; j < d.NumTests; j++ {
				if (j*7+f*3+k)%4 == 0 {
					row.Set(j, 1)
				}
			}
			d.Rows = append(d.Rows, row)
		}
		arts = append(arts, &dictio.Artifact{Dict: d})
		paths = append(paths, fmt.Sprintf("dir/t%d.sdda", k))
	}
	return newTargets(1, paths, arts, mix{})
}

func TestSynthSameBodiesAtAnyConnectionCount(t *testing.T) {
	ts := testTargets()
	mx := mix{hot: 2, hotShare: 0.8, noiseEvery: 4}
	ts[0].hot, ts[1].hot = []int{4, 1}, []int{0, 5}
	const n = 300
	want := make([][]byte, n)
	for i := range want {
		want[i] = synth(7, i, ts, mx, nil).body
	}
	for _, conns := range []int{1, 2, 5} {
		got := make([][]byte, n)
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
					got[i] = synth(7, i, ts, mx, nil).body
				}
			}()
		}
		wg.Wait()
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%d connections: request %d differs", conns, i)
			}
		}
	}
	if bytes.Equal(synth(8, 0, ts, mx, nil).body, want[0]) && bytes.Equal(synth(8, 1, ts, mx, nil).body, want[1]) {
		t.Error("another seed gave the same first requests")
	}
}

func TestSynthCleanAndNoisyObservations(t *testing.T) {
	ts := testTargets()
	noisy := mix{noiseEvery: 4}
	seen := 0
	for i := 0; i < 400; i++ {
		r := synth(3, i, ts, noisy, nil)
		if r.noisy != (i%4 == 3) {
			t.Fatalf("request %d: noisy %v, want every 4th", i, r.noisy)
		}
		clean := synth(3, i, ts, mix{}, nil)
		if clean.target != r.target || clean.fault != r.fault {
			t.Fatalf("request %d: noise changed the planted fault", i)
		}
		d := ts[r.target].art.Dict
		cleanLines, lines := responses(t, clean), responses(t, r)
		cleanSig := signature(t, d, cleanLines)
		if !cleanSig.Equal(d.Rows[r.fault]) {
			t.Fatalf("request %d: clean observation's signature is not fault %d's row", i, r.fault)
		}
		if !r.noisy {
			continue
		}
		seen++
		diff := 0
		for j := range lines {
			for b := range lines[j] {
				if lines[j][b] != cleanLines[j][b] {
					diff++
				}
			}
		}
		if diff != 1 {
			t.Fatalf("request %d: noisy observation differs in %d response bits, want 1", i, diff)
		}
		if h := signature(t, d, lines).Hamming(cleanSig); h != 1 {
			t.Fatalf("request %d: noisy signature is %d bits from the clean one, want 1", i, h)
		}
	}
	if seen != 100 {
		t.Errorf("%d noisy requests of 400, want 100", seen)
	}
}

// responses decodes a request body as the server does.
func responses(t *testing.T, r request) []string {
	t.Helper()
	var req serve.DiagnoseRequest
	if err := json.Unmarshal(r.body, &req); err != nil {
		t.Fatalf("request %d: %v", r.index, err)
	}
	if req.TopK != topK || req.Dictionary == "" {
		t.Fatalf("request %d: body %s", r.index, r.body)
	}
	return req.Responses
}

func signature(t *testing.T, d *core.Compiled, lines []string) logic.BitVec {
	t.Helper()
	vs, err := dictio.ParseVectors(lines, d.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := d.Signature(vs)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}
