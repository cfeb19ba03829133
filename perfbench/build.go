package main

import (
	"bytes"
	"context"
	"fmt"
	"syscall"
	"time"

	"sddict/internal/atpg"
	"sddict/internal/core"
	"sddict/internal/dictio"
	"sddict/internal/experiment"
	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/resp"
)

// buildSeed is the experiment seed every build uses: the canonical
// Table 6 row (sdd's default -seed). The circuit synthesis seed derives
// from it, and per-seed circuits differ too much in build time and
// resolution for a steady benchmark (see NOTES.md).
const buildSeed = 1

// circuit names one Table 6 row: a synthetic circuit profile and the
// test-set type generated for it.
type circuit struct {
	name string
	tt   experiment.TestSetType
}

func (c circuit) String() string { return c.name + "/" + string(c.tt) }

// built is one published artifact and the numbers the gates and metrics
// read off its build.
type built struct {
	c                             circuit
	gates, faults, tests, outputs int
	indFull, indPF, indSD, sdBits int64
	complete                      bool
	art                           *dictio.Artifact
	encoded                       []byte
	elapsed                       time.Duration // netlist to encoded artifact, wall time
	cpu                           time.Duration // the same span in process CPU time
	detect                        atpg.GenStats
	diag                          atpg.DiagStats
	stats                         core.BuildStats
	cells                         int64 // response-matrix size K·N
}

// shape is the one-line description printed for every circuit, so a
// cross-seed comparison can see what each run built.
func (b *built) shape() string {
	return fmt.Sprintf("circuit %s: gates %d, faults %d, tests %d, outputs %d, ind_sd %d, sd_bits %d, artifact %08x",
		b.c, b.gates, b.faults, b.tests, b.outputs, b.indSD, b.sdBits, b.art.Checksum)
}

// publish runs the sdd -publish path: experiment.PrepareProfileCtx and
// BuildRowCtx (together RunProfileRowCtx), Compile, dictio.New, Encode.
func publish(ctx context.Context, c circuit, workers int) (*built, error) {
	start, cpu0 := time.Now(), processCPU()
	cfg := experiment.Config{Seed: buildSeed, Workers: workers}
	pr, err := experiment.PrepareProfileCtx(ctx, c.name, c.tt, cfg)
	if err != nil {
		return nil, err
	}
	row, err := experiment.BuildRowCtx(ctx, pr, c.tt, cfg)
	if err != nil {
		return nil, err
	}
	compiled, err := row.Dict.Compile()
	if err != nil {
		return nil, err
	}
	art, encoded, err := encode(c, compiled, pr.Circuit, pr.Faults)
	if err != nil {
		return nil, err
	}
	return &built{
		c: c, gates: pr.Circuit.NumLogicGates(), faults: row.Faults, tests: row.Tests, outputs: row.Outputs,
		indFull: row.IndFull, indPF: row.IndPF, indSD: row.IndSDFinal, sdBits: row.SizeSDMinimized,
		complete: row.Status == experiment.RowComplete,
		art:      art, encoded: encoded, elapsed: time.Since(start), cpu: processCPU() - cpu0,
		stats: row.BuildStats, cells: int64(pr.Matrix.K) * int64(pr.Matrix.N),
	}, nil
}

// processCPU returns the CPU time, user plus system, the process has
// used so far. It leaves out the time the hypervisor runs other guests
// on this VM's vCPUs, which wall time counts.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// encode wraps a compiled dictionary as a dictio artifact, as sdd
// -publish does, and encodes it.
func encode(c circuit, compiled *core.Compiled, comb *netlist.Circuit, faults []fault.Fault) (*dictio.Artifact, []byte, error) {
	names := make([]string, len(faults))
	for i, f := range faults {
		names[i] = f.Name(comb)
	}
	art, err := dictio.New(compiled, dictio.Header{Circuit: c.name, TestSet: string(c.tt), Seed: buildSeed, Faults: names})
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := art.Encode(&buf); err != nil {
		return nil, nil, err
	}
	return art, buf.Bytes(), nil
}

// checkBuilt applies the build gates: the artifact decodes to the same
// checksum, resolution is ordered full ≤ same/different ≤ pass/fail, and
// the dictionary search ran to completion.
func checkBuilt(b *built) error {
	back, err := dictio.Decode(bytes.NewReader(b.encoded))
	if err != nil {
		return fmt.Errorf("%s: artifact does not decode: %w", b.c, err)
	}
	if back.Checksum != b.art.Checksum {
		return fmt.Errorf("%s: artifact checksum %08x decodes as %08x", b.c, b.art.Checksum, back.Checksum)
	}
	if !(b.indFull <= b.indSD && b.indSD <= b.indPF) {
		return fmt.Errorf("%s: indistinguished pairs out of order: full %d, same/different %d, pass/fail %d",
			b.c, b.indFull, b.indSD, b.indPF)
	}
	if !b.complete {
		return fmt.Errorf("%s: dictionary search did not complete", b.c)
	}
	return nil
}

// scaledEffort mirrors experiment's default effort for a gate count.
func scaledEffort(gates int) float64 {
	switch {
	case gates <= 700:
		return 1
	case gates <= 3000:
		return 0.35
	default:
		return 0.12
	}
}

// publishComposed builds the same artifact as publish, composed from the
// layer calls experiment makes, with a span around each. The checksum
// must match publish's: a mismatch means this composition drifted from
// experiment's configuration.
func publishComposed(ctx context.Context, c circuit, workers int, rec *recorder, id uint64) (*built, error) {
	start := time.Now()
	root := rec.begin(id, "build "+c.String(), "")
	defer rec.end(root)

	var seq, comb *netlist.Circuit
	var col *fault.CollapseResult
	err := rec.do(id, "gen.synthesize", "gen", func() error {
		p, err := gen.Named(c.name)
		if err != nil {
			return err
		}
		seq, err = p.Generate(buildSeed + 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	rec.do(id, "netlist.combinationalize", "gen", func() error { comb = netlist.Combinationalize(seq); return nil })
	rec.do(id, "fault.collapse", "gen", func() error { col = fault.Collapse(comb); return nil })

	b := &built{c: c, gates: comb.NumLogicGates(), faults: len(col.Faults)}
	effort := scaledEffort(b.gates)
	var tests *pattern.Set
	switch c.tt {
	case experiment.TenDetect:
		dcfg := atpg.DefaultConfig(10)
		dcfg.Seed = buildSeed + 2
		switch {
		case b.gates > 3000:
			dcfg.MaxTests = 9000
		case b.gates > 700:
			dcfg.MaxTests = 7000
		}
		rec.do(id, "atpg.detect", "atpg", func() error {
			tests, b.detect = atpg.GenerateDetectionCtx(ctx, comb, col.Faults, dcfg)
			return nil
		})
	case experiment.Diagnostic:
		dcfg := atpg.DefaultConfig(1)
		dcfg.Seed = buildSeed + 2
		dcfg.Compact = true
		var base *pattern.Set
		rec.do(id, "atpg.detect", "atpg", func() error {
			base, b.detect = atpg.GenerateDetectionCtx(ctx, comb, col.Faults, dcfg)
			return nil
		})
		gcfg := atpg.DefaultDiagConfig()
		gcfg.Seed = buildSeed + 3
		gcfg.MaxMiterCalls = max(200, int(3000*effort))
		switch {
		case b.gates > 3000:
			gcfg.UselessBatchLimit, gcfg.RetryBacktrackLimit, gcfg.MaxMiterCalls = 30, 300, 250
			gcfg.SATConflictBudget, gcfg.MaxSATCalls = 3000, 30
		case b.gates > 700:
			gcfg.UselessBatchLimit, gcfg.RetryBacktrackLimit = 20, 500
			gcfg.SATConflictBudget, gcfg.MaxSATCalls = 8000, 40
		}
		rec.do(id, "atpg.diag", "atpg", func() error {
			tests, b.diag = atpg.GenerateDiagnosticCtx(ctx, comb, col.Faults, base, gcfg)
			return nil
		})
	default:
		return nil, fmt.Errorf("unknown test-set type %q", c.tt)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var m *resp.Matrix
	err = rec.do(id, "resp.build", "resp", func() (err error) {
		m, err = resp.BuildObsCtx(ctx, workers, netlist.NewScanView(comb), col.Faults, tests, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	b.tests, b.outputs, b.cells = m.K, m.M, int64(m.K)*int64(m.N)

	opts := core.DefaultOptions
	opts.Seed = buildSeed + 4
	opts.Calls1 = max(2, int(float64(opts.Calls1)*effort))
	opts.MaxRestarts = max(4, int(float64(opts.MaxRestarts)*effort))
	opts.Workers = workers
	var sd *core.Dictionary
	err = rec.do(id, "core.samediff", "core", func() (err error) {
		b.indPF = core.NewPassFail(m).Indistinguished()
		sd, b.stats, err = core.BuildSameDiffCtx(ctx, m, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	b.indFull, b.indSD, b.sdBits = b.stats.IndistFull, b.stats.IndistFinal, sd.SizeBits()
	b.complete = !b.stats.Interrupted

	var compiled *core.Compiled
	err = rec.do(id, "core.compile", "core", func() (err error) {
		compiled, err = sd.Compile()
		return err
	})
	if err != nil {
		return nil, err
	}
	err = rec.do(id, "dictio.encode", "dictio", func() (err error) {
		b.art, b.encoded, err = encode(c, compiled, comb, col.Faults)
		return err
	})
	if err != nil {
		return nil, err
	}
	b.elapsed = time.Since(start)
	return b, nil
}
