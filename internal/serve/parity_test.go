package serve

import (
	"math/rand"
	"path/filepath"
	"testing"

	"sddict/internal/atpg"
	"sddict/internal/core"
	"sddict/internal/dictio"
	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/resp"
)

// TestDiagnoseMatchesCompiled is the differential ranking property
// between the two parties that diagnose an observation: the /diagnose
// handler and core.Compiled called in process. Observations are a random
// fault's true responses with 0–3 output bits flipped, so some match a
// row exactly and the rest fall back to ranking; each goes out with
// top_k 1, 5 and the whole fault list. Every reply must carry exactly
// Compiled.Candidates, or Compiled.Rank(sig, topK) when nothing matches.
func TestDiagnoseMatchesCompiled(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(12))
	col := fault.Collapse(comb)
	cfg := atpg.DefaultConfig(3)
	cfg.Seed = 21
	tests, _ := atpg.GenerateDetection(comb, col.Faults, cfg)
	m := resp.Build(netlist.NewScanView(comb), col.Faults, tests)
	names := make([]string, len(col.Faults))
	for i, f := range col.Faults {
		names[i] = f.Name(comb)
	}
	opts := core.DefaultOptions
	opts.Seed = 5
	opts.Calls1 = 3
	opts.MaxRestarts = 6
	sd, _ := core.BuildSameDiff(m, opts)

	dir := t.TempDir()
	for _, d := range []struct {
		name string
		dict *core.Dictionary
	}{{"passfail", core.NewPassFail(m)}, {"samediff", sd}} {
		compiled, err := d.dict.Compile()
		if err != nil {
			t.Fatal(err)
		}
		art, err := dictio.New(compiled, dictio.Header{
			Circuit: comb.Name, TestSet: "3det", Seed: 21, Faults: names,
		})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, d.name+".sdda")
		if err := art.Save(path); err != nil {
			t.Fatal(err)
		}
		s := New(Config{})
		r := rand.New(rand.NewSource(17))
		exactSeen, rankedSeen := 0, 0
		for trial := 0; trial < 40; trial++ {
			fi := r.Intn(m.N)
			observed := make([]logic.BitVec, m.K)
			for j := range observed {
				observed[j] = m.Vecs[j][m.Class[j][fi]].Clone()
			}
			for f := r.Intn(4); f > 0; f-- {
				j, o := r.Intn(m.K), r.Intn(m.M)
				observed[j].Set(o, observed[j].Get(o)^1)
			}
			lines := make([]string, m.K)
			for j, v := range observed {
				lines[j] = v.String(m.M)
			}
			sig, err := compiled.Signature(observed)
			if err != nil {
				t.Fatal(err)
			}
			exact := compiled.Candidates(sig)
			for _, topK := range []int{1, 5, m.N} {
				var want []Candidate
				if len(exact) > 0 {
					for _, f := range exact {
						want = append(want, Candidate{Fault: f, Name: names[f]})
					}
				} else {
					for _, rk := range compiled.Rank(sig, topK) {
						want = append(want, Candidate{Fault: rk.Fault, Name: names[rk.Fault], Distance: rk.Distance})
					}
				}
				reply := decodeDiagnose(t, post(t, s, "/diagnose",
					DiagnoseRequest{Dictionary: path, Responses: lines, TopK: topK}))
				got := reply.Results[0]
				if got.Exact != (len(exact) > 0) || got.Failing != sig.PopCount() {
					t.Fatalf("%s trial %d top_k %d: exact=%v failing=%d, want exact=%v failing=%d",
						d.name, trial, topK, got.Exact, got.Failing, len(exact) > 0, sig.PopCount())
				}
				if len(got.Candidates) != len(want) {
					t.Fatalf("%s trial %d top_k %d: %d candidates, want %d",
						d.name, trial, topK, len(got.Candidates), len(want))
				}
				for i := range want {
					if got.Candidates[i] != want[i] {
						t.Fatalf("%s trial %d top_k %d: candidate %d = %+v, want %+v",
							d.name, trial, topK, i, got.Candidates[i], want[i])
					}
				}
			}
			if len(exact) > 0 {
				exactSeen++
			} else {
				rankedSeen++
			}
		}
		if exactSeen == 0 || rankedSeen == 0 {
			t.Errorf("%s: %d exact and %d ranked observations; the property needs both",
				d.name, exactSeen, rankedSeen)
		}
	}
}
