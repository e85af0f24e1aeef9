package main

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"mcmsim/internal/experiments"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
)

// The wrapper only adds timing: wrapped and unwrapped runner.Run produce
// the same rows and the same warmup cache hits and misses.
func TestWrapPreservesResults(t *testing.T) {
	plainCache := runner.NewWarmupCache()
	_, _, jobs := paperSuite(1)
	plain := runner.Run(jobs, runner.Options{Workers: 1, WarmupCache: plainCache})
	wrappedCache := runner.NewWarmupCache()
	_, _, jobs = paperSuite(1)
	var p pass
	wrapped := p.runJobs(jobs, wrappedCache)
	recs := p.recs
	if len(plain) != len(wrapped) {
		t.Fatalf("%d results unwrapped, %d wrapped", len(plain), len(wrapped))
	}
	for i := range plain {
		if plain[i].Err != nil || wrapped[i].Err != nil {
			t.Fatalf("job %s failed: %v / %v", plain[i].Name, plain[i].Err, wrapped[i].Err)
		}
		if plain[i].Name != wrapped[i].Name || plain[i].Row.String() != wrapped[i].Row.String() {
			t.Errorf("job %d: unwrapped %s %q, wrapped %s %q", i,
				plain[i].Name, plain[i].Row, wrapped[i].Name, wrapped[i].Row)
		}
		if recs[i].ready.IsZero() || recs[i].done.Before(recs[i].ready) || recs[i].setup() < 0 {
			t.Errorf("job %s: bad marks ready=%v done=%v wall=%v", recs[i].name, recs[i].ready, recs[i].done, recs[i].wall)
		}
	}
	total, setup := cpuCosts(recs, p.poolCPU)
	if len(total) != len(jobs) {
		t.Fatalf("CPU costs for %d of %d jobs", len(total), len(jobs))
	}
	for i := range total {
		if setup[i] < 0 || setup[i] > total[i] {
			t.Errorf("job %s: set-up CPU %v outside [0, %v]", recs[i].name, setup[i], total[i])
		}
	}
	ph, pm := plainCache.Stats()
	wh, wm := wrappedCache.Stats()
	if ph != wh || pm != wm {
		t.Errorf("warmup cache hits/misses: unwrapped %d/%d, wrapped %d/%d", ph, pm, wh, wm)
	}
	if pm == 0 || ph == 0 {
		t.Errorf("paper suite should both miss and hit the warmup cache, got %d hits %d misses", ph, pm)
	}
}

// A pass whose report does not match its pinned digest reports every job
// as failed, on every workload. The test swaps in a corrupted table and
// checks that the digest each pass computes is the genuinely pinned one.
func TestCorruptedDigestFailsJobs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			seed := w.passSeed(1, 0)
			want, ok := pinned[w.name][seed]
			if !ok {
				t.Fatalf("no digest pinned for %s seed %d", w.name, seed)
			}
			saved := pinned[w.name]
			pinned[w.name] = map[int64]string{seed: "0000000000000000"}
			defer func() { pinned[w.name] = saved }()
			p := runPass(w, seed)
			if p.digest != want {
				t.Errorf("digest %s, pinned %s", p.digest, want)
			}
			if p.jobs == 0 || p.failed != p.jobs {
				t.Errorf("corrupted digest: %d of %d jobs failed, want all", p.failed, p.jobs)
			}
		})
	}
}

// A resume whose row differs from the checkpointed run fails the job.
func TestResumeMismatchFailsJob(t *testing.T) {
	job := experiments.ScaleSweepJobs([]int{16}, "mesh")[0]
	calls := 0
	measure := job.Measure
	job.Measure = func(s *sim.System, halt uint64) (runner.Row, error) {
		calls++
		row, err := measure(s, halt)
		row.Cycles += uint64(calls) // the resumed call sees a different row
		return row, err
	}
	var st snapStats
	res := runner.Run([]runner.Job{checkpointJob(job, &st)}, runner.Options{Workers: 1})
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "differs") {
		t.Fatalf("want a resume mismatch error, got %v", res[0].Err)
	}
	if st.count == 0 || st.restores != 1 {
		t.Errorf("checkpoints %d, restores %d; want some and one", st.count, st.restores)
	}
}

// Every named function lands in its own bucket, whatever it calls and
// whoever calls it from outside the named set; unknown frames go to other.
func TestBucketOf(t *testing.T) {
	root := []string{"mcmsim/internal/sim.(*System).Step", "mcmsim/internal/sim.(*System).Run", "runtime.goexit"}
	for _, b := range profileBuckets {
		for _, f := range b.funcs {
			stack := append([]string{"runtime.mallocgc", "mcmsim/internal/x.helper", f}, root...)
			if got := bucketOf(stack); got != b.name {
				t.Errorf("%s: bucket %q, want %q", f, got, b.name)
			}
		}
	}
	if got := bucketOf([]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}); got != otherBucket {
		t.Errorf("unknown frames: bucket %q, want %q", got, otherBucket)
	}
	// The outermost named frame wins: handler work under Deliver stays
	// with network.deliver.
	nested := []string{
		"mcmsim/internal/cache.(*Cache).Tick",
		"mcmsim/internal/network.(*Network).Deliver",
		"mcmsim/internal/sim.(*System).Step",
	}
	if got := bucketOf(nested); got != "network.deliver" {
		t.Errorf("nested phases: bucket %q, want network.deliver", got)
	}
}

// A recursive stack counts once, and sample values add up per bucket.
func TestBucketTracesRecursion(t *testing.T) {
	const traces = `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   mcmsim/internal/conformance.(*ExactOracle).search
             mcmsim/internal/conformance.(*ExactOracle).search
             mcmsim/internal/conformance.(*ExactOracle).search
             mcmsim/internal/conformance.(*ExactOracle).Outcomes
             mcmsim/internal/conformance.ModelOutcomes (inline)
             mcmsim/internal/conformance.CheckProgram
-----------+-------------------------------------------------------
     1.20s   mcmsim/internal/cpu.(*Proc).resolve (inline)
             mcmsim/internal/cpu.(*Proc).TickExecute
             mcmsim/internal/sim.(*System).Step
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	got, err := bucketTraces(strings.NewReader(traces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"conformance.exact": 30 * time.Millisecond,
		"cpu.execute":       1200 * time.Millisecond,
		otherBucket:         10 * time.Millisecond,
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("buckets %v, want %v", got, want)
	}
}

// On a recorded CPU profile of a traced conform_batch run, `go tool pprof`
// output buckets into the Step phases, the oracles and other, and the
// buckets sum to the profile's total samples.
func TestBucketRecordedProfile(t *testing.T) {
	const path = "testdata/conform_batch.cpu.pprof"
	buckets, err := bucketProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, d := range buckets {
		sum += d
	}
	top, err := pprofOutput("-top", path)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`Total samples = (\S+)`).FindStringSubmatch(top)
	if m == nil {
		t.Fatalf("no total in pprof -top output:\n%s", top)
	}
	total, err := time.ParseDuration(m[1])
	if err != nil {
		t.Fatal(err)
	}
	if sum != total {
		t.Errorf("buckets sum to %v, profile total %v (%v)", sum, total, buckets)
	}
	for _, b := range []string{"conformance.exact", "conformance.legacy", "cpu.execute", "core.issue", "network.deliver", "sim.build", otherBucket} {
		if buckets[b] <= 0 {
			t.Errorf("bucket %s empty in %v", b, buckets)
		}
	}
}

// A run's inputs and its attempted and failed counts depend on the seed
// only: passes wrap around after one cycle, and repeating a cycle, as a
// faster host does, changes neither count.
func TestInputsIndependentOfSpeed(t *testing.T) {
	for _, w := range workloads {
		seen := map[int64]bool{}
		var once []pass
		for k := 0; k < w.cycle; k++ {
			s := w.passSeed(5, k)
			if seen[s] {
				t.Errorf("%s: pass %d repeats seed %d within a cycle", w.name, k, s)
			}
			seen[s] = true
			if again := w.passSeed(5, k+w.cycle); again != s {
				t.Errorf("%s: pass %d seed %d, one cycle later %d", w.name, k, s, again)
			}
			once = append(once, pass{seed: s, jobs: 10, failed: k % 2})
		}
		twice := append(append([]pass(nil), once...), once...)
		a, b := tally(once), tally(twice)
		if a.Attempted != 10*w.cycle || a.Attempted != b.Attempted || a.Failed != b.Failed {
			t.Errorf("%s: one cycle %d/%d attempted/failed, two cycles %d/%d",
				w.name, a.Attempted, a.Failed, b.Attempted, b.Failed)
		}
	}
}
