package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"

	"sddict/internal/casestore"
	"sddict/internal/core"
	"sddict/internal/dictio"
	"sddict/internal/logic"
	"sddict/internal/obs"
	"sddict/internal/serve"
)

// server is an in-process serve.Server, optionally listening on a
// loopback port and optionally backed by a durable case store.
type server struct {
	srv   *serve.Server
	ob    *obs.Observer
	cases *casestore.Store
	url   string
	stop  func() error
}

// startServer builds a server, preloads every artifact and, if listen is
// set, serves it on a loopback listener. storeDir "" runs without a case
// store.
func startServer(paths []string, storeDir string, listen bool) (*server, error) {
	s := &server{ob: &obs.Observer{Metrics: obs.NewMetrics()}, stop: func() error { return nil }}
	if storeDir != "" {
		fst, err := casestore.OpenDir(storeDir, casestore.FileOptions{})
		if err != nil {
			return nil, err
		}
		if s.cases, err = casestore.Open(fst, casestore.Options{}); err != nil {
			fst.Close()
			return nil, err
		}
	}
	s.srv = serve.New(serve.Config{Cases: s.cases, Obs: s.ob})
	for _, p := range paths {
		if _, err := s.srv.LoadDictionary(p); err != nil {
			s.cases.Close()
			return nil, err
		}
	}
	if !listen {
		s.stop = s.cases.Close
		return s, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.cases.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String() + "/diagnose"
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.srv.Serve(ctx, ln) }()
	s.stop = func() error {
		cancel()
		return errors.Join(<-done, s.cases.Close())
	}
	return s, nil
}

// recallCounts returns the server's serve_recall_{hits,near,misses}.
func (s *server) recallCounts() (hits, near, misses int64) {
	m := s.ob.M()
	return m.Counter(obs.ServeRecallHits), m.Counter(obs.ServeRecallNear), m.Counter(obs.ServeRecallMisses)
}

// startNoop serves a handler that drains the body and replies with fixed
// bytes: the harness and net/http floor under every /diagnose latency.
func startNoop() (url string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	reply := []byte(`{"results":[]}` + "\n")
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // a short read only shortens the floor
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(reply) // the client reports a failed write
	})}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	return "http://" + ln.Addr().String() + "/diagnose", func() error {
		err := hs.Close()
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}, nil
}

// serveInProcess runs one request through the server's full handler with
// no socket.
func serveInProcess(h http.Handler, r request) (int, []byte) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/diagnose", bytes.NewReader(r.body)))
	return w.Code, w.Body.Bytes()
}

// replayer runs /diagnose observations through the layer functions the
// server calls, in the server's order, each in its own span: body
// decode, vector parse, signature, recall, exact match, rank fallback,
// record, reply encode.
type replayer struct {
	ts    []*target
	cases *casestore.Store // nil without a case store
	keys  []string         // per target: the artifact checksum the store keys on

	ranked                    int // observations that took the rank fallback
	exactHits, nearHits, miss int
}

func newReplayer(ts []*target, cases *casestore.Store) *replayer {
	rp := &replayer{ts: ts, cases: cases}
	for _, t := range ts {
		rp.keys = append(rp.keys, fmt.Sprintf("%08x", t.art.Checksum))
	}
	return rp
}

// diagnose replays request r under span ID id and returns its result.
func (rp *replayer) diagnose(rec *recorder, id uint64, r request) (serve.DiagnoseResult, error) {
	var req serve.DiagnoseRequest
	if err := rec.do(id, "serve.decode", "serve", func() error { return json.Unmarshal(r.body, &req) }); err != nil {
		return serve.DiagnoseResult{}, err
	}
	t := rp.ts[r.target]
	dict := t.art.Dict
	var vectors []logic.BitVec
	err := rec.do(id, "dictio.parse", "dictio", func() (err error) {
		vectors, err = dictio.ParseVectors(req.Responses, dict.Outputs)
		return err
	})
	if err != nil {
		return serve.DiagnoseResult{}, err
	}
	var sig logic.BitVec
	if err := rec.do(id, "core.signature", "core", func() (err error) { sig, err = dict.Signature(vectors); return err }); err != nil {
		return serve.DiagnoseResult{}, err
	}
	res := serve.DiagnoseResult{Failing: sig.PopCount()}
	served := false
	if rp.cases != nil {
		rec.do(id, "casestore.recall", "casestore", func() error {
			served = rp.recall(r.target, sig, &res)
			return nil
		})
	}
	if !served {
		var exact []int
		rec.do(id, "core.match", "core", func() error { exact = dict.Candidates(sig); return nil })
		res.Exact = len(exact) > 0
		for _, f := range exact {
			res.Candidates = append(res.Candidates, serve.Candidate{Fault: f, Name: t.art.Header.Faults[f]})
		}
		if !res.Exact {
			rp.ranked++
			rec.do(id, "core.rank", "core", func() error {
				for _, rk := range dict.Rank(sig, topK) {
					res.Candidates = append(res.Candidates, serve.Candidate{
						Fault: rk.Fault, Name: t.art.Header.Faults[rk.Fault], Distance: rk.Distance})
				}
				return nil
			})
		}
		if rp.cases != nil {
			err := rec.do(id, "casestore.record", "casestore", func() error { return rp.record(r.target, sig, res) })
			if err != nil {
				return res, err
			}
		}
	}
	err = rec.do(id, "serve.encode", "serve", func() error {
		_, err := json.Marshal(serve.DiagnoseResponse{Dictionary: t.path, Checksum: rp.keys[r.target],
			Results: []serve.DiagnoseResult{res}})
		return err
	})
	return res, err
}

// recall mirrors the server's recall step: an exact case is served as
// is; a near case only if it passes the false-dedup guard.
func (rp *replayer) recall(target int, sig logic.BitVec, res *serve.DiagnoseResult) bool {
	rc := rp.cases.Recall(rp.keys[target], sig, topK)
	switch {
	case rc.Kind == casestore.Exact:
		rp.exactHits++
	case rc.Kind == casestore.Near && guardNear(rp.ts[target].art.Dict, sig, rc.Case):
		rp.nearHits++
		res.Recall = &serve.RecallInfo{Kind: rc.Kind.String(), Case: rc.Case.ID, Distance: rc.Distance, Confidence: rc.Confidence}
	default:
		rp.miss++
		return false
	}
	res.Exact = rc.Case.Exact
	for _, c := range rc.Case.Candidates {
		res.Candidates = append(res.Candidates, serve.Candidate{Fault: c.Fault, Name: c.Name, Distance: c.Distance})
	}
	return true
}

// guardNear mirrors the server's false-dedup guard: a near case is
// served only if its candidates are exactly the rows at minimum nonzero
// Hamming distance from sig.
func guardNear(dict *core.Compiled, sig logic.BitVec, c *casestore.Case) bool {
	best := -1
	var top []int
	for i, row := range dict.Rows {
		d := row.Hamming(sig)
		if best < 0 || d < best {
			best, top = d, top[:0]
		}
		if d == best {
			top = append(top, i)
		}
	}
	if best <= 0 || len(top) != len(c.Candidates) {
		return false
	}
	for i, f := range top {
		if c.Candidates[i].Fault != f {
			return false
		}
	}
	return true
}

// record mirrors the server's case record after a recompute.
func (rp *replayer) record(target int, sig logic.BitVec, res serve.DiagnoseResult) error {
	a := rp.ts[target].art
	c := casestore.Case{
		Circuit: a.Header.Circuit, TestSet: a.Header.TestSet, Checksum: rp.keys[target],
		TestChecksum: a.Header.TestChecksum, SigBits: a.Dict.SignatureBits(),
		Signature: append([]uint64(nil), sig...), Exact: res.Exact, TopK: topK, Failing: res.Failing,
	}
	for _, cand := range res.Candidates {
		c.Candidates = append(c.Candidates, casestore.Candidate{Fault: cand.Fault, Name: cand.Name, Distance: cand.Distance})
	}
	_, err := rp.cases.Record(c)
	return err
}
