package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"mcmsim/internal/conformance"
	"mcmsim/internal/core"
	"mcmsim/internal/experiments"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
	"mcmsim/internal/snapshot"
)

// pass is one execution of a workload's whole job list on inputs made from
// one seed: the unit every end-to-end time is a median over.
type pass struct {
	seed   int64 // workload seed of this pass's inputs
	jobs   int
	failed int // failed jobs, wrong outputs, violations, resume mismatches

	start     time.Time
	cpu0      time.Duration // process CPU time at start
	wall, cpu time.Duration
	enumerate time.Duration // job enumeration (and program generation)
	enumCPU   time.Duration
	dispatch  time.Duration // runner pool wall not covered by any job
	poolCPU   time.Duration // process CPU time when the pool started
	recs      []jobRecord

	warmHits, warmMisses uint64

	// hiddenMachines counts machines built inside calls the wrapper
	// cannot see into: checkpoint restores and conformance cells.
	hiddenMachines int

	digest string // sha256 prefix of the pass's report
	out    outputs
	snap   snapStats
	oracle oracleStats
}

// enumerated marks the end of the pass's enumeration, which every
// workload does first.
func (p *pass) enumerated() {
	p.enumerate, p.enumCPU = time.Since(p.start), cpuTime()-p.cpu0
}

// setup is the pass's set-up wall time: enumeration plus every job's
// machine build before its measured phase.
func (p *pass) setup() time.Duration {
	d := p.enumerate
	for i := range p.recs {
		d += p.recs[i].setup()
	}
	return d
}

// setupCPU is the process CPU time of the same set-up.
func (p *pass) setupCPU() time.Duration {
	d := p.enumCPU
	_, setup := cpuCosts(p.recs, p.poolCPU)
	for _, s := range setup {
		d += s
	}
	return d
}

// outputs are a pass's exact simulated results.
type outputs struct {
	simCycles uint64  // Σ halt cycles of the rows
	scRC      float64 // SC/RC cycles with prefetch+speculation
	cells     int     // conformance grid cells run
	relaxed   int     // cells whose outcome is outside oracle(SC)
}

// snapStats times the checkpoint path of checkpoint_resume.
type snapStats struct {
	export, encode, decode, restore time.Duration
	count, bytes                    int // checkpoints written and their total size
	restores                        int
}

// oracleStats times the traced run's direct oracle calls.
type oracleStats struct {
	exact, legacy time.Duration
	outcomes      int
}

// workload is one named input family. Its input set is fixed by the run's
// seed alone: a cycle of passes whose seeds are seed, seed+stride, …,
// seed+stride*(cycle-1), or, for a seedless workload, one pass on seed 0.
// A run repeats whole cycles (see measure), so which inputs it checks and
// what its medians are over do not depend on how fast the host is.
type workload struct {
	name   string
	seeded bool
	cycle  int   // passes per cycle, each on its own input
	stride int64 // seed distance between the cycle's passes
	run    func(seed int64, p *pass)
	// probe, if set, times what the traced run measures by direct calls,
	// after the CPU profile has stopped, on a traced pass's inputs.
	probe func(p *pass)
}

// passSeed is the input seed of pass k of a run started at seed.
func (w workload) passSeed(seed int64, k int) int64 {
	if !w.seeded {
		return 0
	}
	return seed + w.stride*int64(k%w.cycle)
}

// conformPrograms is the batch size of one conform_batch pass.
const conformPrograms = 32

// checkpointEvery is checkpoint_resume's interval in simulated cycles.
const checkpointEvery = 500

// The cycle lengths are chosen so that one cycle takes about 20 s on a
// 2-CPU Xeon VM (1.1 s per paper_suite pass, 1.4 s per conform_batch
// pass), within a 25 s run: paper_suite checks workload seeds seed …
// seed+17, conform_batch programs seed … seed+447.
var workloads = []workload{
	{name: "paper_suite", seeded: true, cycle: 18, stride: 1, run: runPaperSuite},
	{name: "mesh_scale", cycle: 1, run: runMeshScale},
	{name: "conform_batch", seeded: true, cycle: 14, stride: conformPrograms, run: runConformBatch, probe: timeOracles},
	{name: "checkpoint_resume", cycle: 1, run: runCheckpointResume},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digestOf is the short form of a report's sha256 that pinned.go records.
func digestOf(report []byte) string {
	sum := sha256.Sum256(report)
	return hex.EncodeToString(sum[:8])
}

// checkReport digests a pass's rendered report and, where a digest is
// pinned for this workload and seed, counts a mismatch as every job of the
// pass failing: the digest covers the rows jointly, so no single row can
// be blamed.
func (p *pass) checkReport(name string, report []byte) {
	p.digest = digestOf(report)
	if want, ok := pinned[name][p.seed]; ok && want != p.digest {
		p.failed = p.jobs
	}
}

// runTables runs a sweep-shaped job list and partitions the rows into
// one table per sweep, as cmd/sweep does; failed jobs are counted.
func (p *pass) runTables(names []string, bounds [][2]int, jobs []runner.Job, cache *runner.WarmupCache) []runner.Table {
	res := p.runJobs(jobs, cache)
	rows := make([]runner.Row, len(res))
	for i, r := range res {
		if r.Err != nil {
			p.failed++
			continue
		}
		rows[i] = r.Row
		p.out.simCycles += r.Row.Cycles
	}
	tables := make([]runner.Table, len(names))
	for i, n := range names {
		tables[i] = runner.Table{Name: n, Rows: rows[bounds[i][0]:bounds[i][1]]}
	}
	return tables
}

// render writes the tables exactly as `sweep -format csv` prints them and
// checks the digest, unless a job already failed.
func (p *pass) render(name string, tables []runner.Table) {
	var buf bytes.Buffer
	if err := runner.WriteReport(&buf, runner.FormatCSV, tables); err != nil {
		p.failed = p.jobs
		return
	}
	if p.failed == 0 {
		p.checkReport(name, buf.Bytes())
	}
}

// scRCRatio finds the SC and RC prefetch+speculation rows matching extra
// labels and returns their cycle ratio (0 if either is missing).
func scRCRatio(rows []runner.Row, match map[string]string) float64 {
	var sc, rc uint64
	for _, r := range rows {
		ok := r.Labels["tech"] == "pf+spec"
		for k, v := range match {
			ok = ok && r.Labels[k] == v
		}
		if !ok {
			continue
		}
		switch r.Labels["model"] {
		case core.SC.String():
			sc = r.Cycles
		case core.RC.String():
			rc = r.Cycles
		}
	}
	if sc == 0 || rc == 0 {
		return 0
	}
	return float64(sc) / float64(rc)
}

// paperSuite enumerates E1–E15, the `sweep -exp all` suite without the
// scale sweep, as one job list with each sweep's name and slice bounds.
func paperSuite(seed int64) (names []string, bounds [][2]int, jobs []runner.Job) {
	params := experiments.DefaultParams()
	params.Seed = seed
	for _, s := range experiments.Suite() {
		if s.ID == "E16" {
			continue
		}
		js := s.Jobs(params)
		names = append(names, s.Name)
		bounds = append(bounds, [2]int{len(jobs), len(jobs) + len(js)})
		jobs = append(jobs, js...)
	}
	return names, bounds, jobs
}

// runPaperSuite runs E1–E15 with the warmup-snapshot cache on.
func runPaperSuite(seed int64, p *pass) {
	names, bounds, jobs := paperSuite(seed)
	p.enumerated()
	cache := runner.NewWarmupCache()
	tables := p.runTables(names, bounds, jobs, cache)
	p.warmHits, p.warmMisses = cache.Stats()
	p.out.scRC = scRCRatio(tables[0].Rows, nil)
	p.render("paper_suite", tables)
}

// meshJobs enumerates E16 on auto-sized meshes.
func meshJobs(p *pass) []runner.Job {
	jobs := experiments.ScaleSweepJobs(experiments.ScaleCPUCounts, "mesh")
	p.enumerated()
	return jobs
}

// meshTables runs E16-shaped jobs and renders them under the sweep's name.
func (p *pass) meshTables(name string, jobs []runner.Job) {
	tables := p.runTables([]string{"scale"}, [][2]int{{0, len(jobs)}}, jobs, nil)
	p.out.scRC = scRCRatio(tables[0].Rows, map[string]string{"cpus": "256"})
	p.render(name, tables)
}

// runMeshScale is E16 at 16/64/256 CPUs, each job driven by one s.Run().
func runMeshScale(_ int64, p *pass) {
	p.meshTables("mesh_scale", meshJobs(p))
}

// runCheckpointResume drives the E16 machines through RunCheckpointed,
// encodes every checkpoint into memory, and resumes each job from its last
// checkpoint; the resumed run must end exactly like the checkpointed one.
func runCheckpointResume(_ int64, p *pass) {
	jobs := meshJobs(p)
	for i, j := range jobs {
		jobs[i] = checkpointJob(j, &p.snap)
	}
	p.meshTables("checkpoint_resume", jobs)
	p.hiddenMachines = p.snap.restores
}

// checkpointJob turns an E16 Measure job into a Run job that checkpoints
// every checkpointEvery cycles and checks a resume from the last
// checkpoint. A resume that differs from the checkpointed run in halt
// cycle, statistics or row fails the job.
func checkpointJob(j runner.Job, st *snapStats) runner.Job {
	measure := j.Measure
	j.Measure = nil
	j.Run = func(s *sim.System) (runner.Row, error) {
		var last bytes.Buffer
		halt, err := s.RunCheckpointed(checkpointEvery, func(s *sim.System) error {
			t0 := time.Now()
			m, err := s.Snapshot()
			if err != nil {
				return err
			}
			t1 := time.Now()
			last.Reset()
			if err := snapshot.Write(&last, m); err != nil {
				return err
			}
			st.export += t1.Sub(t0)
			st.encode += time.Since(t1)
			st.count++
			st.bytes += last.Len()
			return nil
		})
		if err != nil {
			return runner.Row{}, err
		}
		row, err := measure(s, halt)
		if err != nil {
			return runner.Row{}, err
		}
		if last.Len() == 0 {
			return runner.Row{}, fmt.Errorf("%s: halted before the first checkpoint", j.Name)
		}
		t0 := time.Now()
		m, err := snapshot.Read(&last)
		if err != nil {
			return runner.Row{}, err
		}
		t1 := time.Now()
		r, err := sim.Restore(m)
		if err != nil {
			return runner.Row{}, err
		}
		st.decode += t1.Sub(t0)
		st.restore += time.Since(t1)
		st.restores++
		rhalt, err := r.RunCheckpointed(checkpointEvery, nil)
		if err != nil {
			return runner.Row{}, err
		}
		rrow, err := measure(r, rhalt)
		if err != nil {
			return runner.Row{}, err
		}
		if rhalt != halt || rrow.String() != row.String() || r.StatsReport() != s.StatsReport() {
			return runner.Row{}, fmt.Errorf("%s: resume from cycle %d differs from the checkpointed run", j.Name, m.Cycle)
		}
		return row, nil
	}
	return j
}

// runConformBatch checks conformPrograms generated programs across the
// full grid (150 cells plus dense twins each, both oracles).
func runConformBatch(seed int64, p *pass) {
	var params conformance.Params
	var opts conformance.CheckOptions
	jobs := conformance.BatchJobs(seed, conformPrograms, params, opts)
	p.enumerated()
	res := p.runJobs(jobs, nil)
	rep := conformance.BatchReport(seed, conformPrograms, params, res)
	p.out.cells, p.out.relaxed = rep.Stats.Cells, rep.Stats.Relaxed
	// The machines CheckProgram builds are hidden from the wrapper; the
	// report counts its grid cells (not its dense twins).
	p.hiddenMachines = rep.Stats.Cells
	bad := map[int64]bool{}
	for _, v := range rep.Violations {
		if !bad[v.Program.Seed] {
			fmt.Fprintf(os.Stderr, "conform_batch: program seed %d: %v\n", v.Program.Seed, v)
		}
		bad[v.Program.Seed] = true
	}
	p.failed = len(bad)
	if p.failed == 0 {
		// Summarize minimizes every failing program, so only a clean
		// report is rendered and digested.
		var buf bytes.Buffer
		conformance.Summarize(&buf, rep, seed, conformPrograms, opts, -1)
		p.checkReport("conform_batch", buf.Bytes())
	}
}

// timeOracles calls both oracles once per program of a conform_batch pass
// and model, and times them. Each oracle error counts as a failure.
func timeOracles(p *pass) {
	var params conformance.Params
	for i := 0; i < conformPrograms; i++ {
		prog := conformance.Generate(p.seed+int64(i), params)
		progs, shared := prog.Build(), prog.SharedAddrs()
		for _, m := range core.AllModels {
			t0 := time.Now()
			set, err := conformance.ModelOutcomes(progs, shared, m)
			t1 := time.Now()
			_, lerr := conformance.LegacyModelOutcomes(progs, shared, m)
			p.oracle.exact += t1.Sub(t0)
			p.oracle.legacy += time.Since(t1)
			if err != nil || lerr != nil {
				p.failed++
				continue
			}
			p.oracle.outcomes += len(set)
		}
	}
}
