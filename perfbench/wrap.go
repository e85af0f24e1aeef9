package main

import (
	"time"

	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
)

// jobRecord is what the wrapper observes of one job from outside the
// simulator. A record is written only by the worker that runs its job and
// read after runner.Run returns, which orders the two.
type jobRecord struct {
	name  string
	ready time.Time // the machine reached the measured phase
	done  time.Time // the measured phase returned its row

	// cpuReady and cpuDone are the process CPU time at ready and done.
	cpuReady, cpuDone time.Duration

	wall      time.Duration // the runner's own job wall time
	warmBuild time.Duration // warmup simulations this job built (cache misses)
	machines  int           // machines built or restored by the job's set-up

	c0, f0     uint64 // machine clock and fast-forward count at ready
	cycles, ff uint64 // simulated and fast-forwarded cycles of the measured phase
}

// run is the measured phase: from the machine being ready to the
// measurement returning. A job that failed before either mark has none.
func (r *jobRecord) run() time.Duration {
	if r.ready.IsZero() || r.done.IsZero() {
		return 0
	}
	return r.done.Sub(r.ready)
}

// setup is everything else the job spent: Configure, or the warmup
// build/restore and Finish.
func (r *jobRecord) setup() time.Duration { return r.wall - r.run() }

func (r *jobRecord) markReady(s *sim.System) {
	r.ready, r.cpuReady = time.Now(), cpuTime()
	if s != nil {
		r.c0, r.f0 = s.Cycle, s.FastForwarded
	}
}

func (r *jobRecord) markDone(s *sim.System) {
	r.done, r.cpuDone = time.Now(), cpuTime()
	if s != nil {
		r.cycles, r.ff = s.Cycle-r.c0, s.FastForwarded-r.f0
	}
}

// cpuCosts splits the process CPU time of a one-worker pool that started
// at cpuStart into each job's total and set-up share. The worker runs the
// jobs one after another, so job i's CPU runs from job i-1's done mark to
// its own, and its set-up up to its ready mark; the garbage collector's
// concurrent work is charged to the job running at the time. A job that
// failed before its marks gets nothing; its CPU goes to the next job.
func cpuCosts(recs []jobRecord, cpuStart time.Duration) (total, setup []time.Duration) {
	prev := cpuStart
	for i := range recs {
		r := &recs[i]
		if r.ready.IsZero() || r.done.IsZero() {
			continue
		}
		total = append(total, r.cpuDone-prev)
		setup = append(setup, r.cpuReady-prev)
		prev = r.cpuDone
	}
	return total, setup
}

// wrap returns jobs that behave exactly like the originals but record, in
// recs[i], when job i's machine became ready and when its measured phase
// ended. Only timing is added: every closure is called with the arguments
// the runner supplies, warmup keys are kept, and a nil Finish becomes a
// Finish that does nothing but mark the time.
func wrap(jobs []runner.Job, recs []jobRecord) []runner.Job {
	out := make([]runner.Job, len(jobs))
	for i, j := range jobs {
		rec := &recs[i]
		w := j
		if j.Configure != nil {
			w.Configure = func() (*sim.System, error) {
				s, err := j.Configure()
				if err == nil {
					rec.machines++
					rec.markReady(s)
				}
				return s, err
			}
		}
		if j.Warmup != nil {
			spec := *j.Warmup
			spec.Build = func() (*sim.System, error) {
				start := time.Now()
				s, err := j.Warmup.Build()
				rec.warmBuild += time.Since(start)
				rec.machines++
				return s, err
			}
			spec.Finish = func(s *sim.System) error {
				if f := j.Warmup.Finish; f != nil {
					if err := f(s); err != nil {
						return err
					}
				}
				rec.machines++
				rec.markReady(s)
				return nil
			}
			w.Warmup = &spec
		}
		if j.Measure != nil {
			w.Measure = func(s *sim.System, halt uint64) (runner.Row, error) {
				row, err := j.Measure(s, halt)
				rec.markDone(s)
				return row, err
			}
		}
		if j.Run != nil {
			w.Run = func(s *sim.System) (runner.Row, error) {
				if rec.ready.IsZero() {
					rec.markReady(s)
				}
				row, err := j.Run(s)
				rec.markDone(s)
				return row, err
			}
		}
		out[i] = w
	}
	return out
}

// runJobs executes jobs on a one-worker runner pool through wrap and
// records them in p: the job count, the per-job records, the process CPU
// time at the pool's start, and dispatch, the pool's wall time not covered
// by any job (enqueueing, hand-off and collection).
func (p *pass) runJobs(jobs []runner.Job, cache *runner.WarmupCache) []runner.Result {
	p.jobs, p.recs = len(jobs), make([]jobRecord, len(jobs))
	start := time.Now()
	p.poolCPU = cpuTime()
	res := runner.Run(wrap(jobs, p.recs), runner.Options{Workers: 1, WarmupCache: cache})
	p.dispatch = time.Since(start)
	for i := range res {
		p.recs[i].name, p.recs[i].wall = res[i].Name, res[i].Wall
		p.dispatch -= res[i].Wall
	}
	return res
}
