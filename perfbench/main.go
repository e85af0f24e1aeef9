// Command perfbench measures how long mcmsim takes, in host time, on four
// workloads its users wait on, and checks that every simulated result is
// exact. Run it from the repository root through the wrapper, which builds
// it first:
//
//	bash perfbench/run.sh --workload paper_suite --seed 1 --seconds 25 --trace 0
//
// Each run repeats a fixed cycle of passes, each pass on its own input
// made from --seed, on one runner.Run worker, in whole cycles for about
// --seconds. With --trace 0 it prints the end-to-end metrics
// (medians over passes); with --trace 1 it spends half the budget
// untraced and half traced, and prints the per-layer metrics, measured by
// timing calls into public entry points and by a CPU profile of the traced
// half bucketed per Step phase (see profile.go). The last line of standard
// output is the result object; the line before it records the host.
//
// The benchmark deliberately does not measure internal/parsim,
// internal/farm or the shard barrier, and sets none of the simulator's
// process globals, so those may change or go without editing it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper_suite, mesh_scale, conform_batch or checkpoint_resume")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if !w.seeded {
		fmt.Fprintf(os.Stderr, "perfbench: %s is seedless; --seed %d is ignored\n", w.name, *seed)
	}
	host := hostInfo()
	hostLine, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(hostLine))

	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 0 {
		passes := measure(w, *seed, budget, minJobs)
		res = endToEnd(passes)
		logPasses(w.name, "untraced", passes)
	} else {
		var err error
		if res, err = traced(w, *seed, budget, host); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// minJobs is the fewest jobs a measurement collects, so that at least ten
// job latencies lie beyond the 90th percentile.
const minJobs = 100

// measure runs whole cycles of w's passes: at least one, and another
// only while fewer than wantJobs jobs have run or while it is expected,
// at the last cycle's length, to end within budget.
func measure(w workload, seed int64, budget time.Duration, wantJobs int) []pass {
	var passes []pass
	jobs := 0
	start := time.Now()
	for {
		c0 := time.Now()
		for k := 0; k < w.cycle; k++ {
			p := runPass(w, w.passSeed(seed, k))
			passes = append(passes, p)
			jobs += p.jobs
		}
		if jobs >= wantJobs && time.Since(start)+time.Since(c0) > budget {
			return passes
		}
	}
}

// runPass runs one pass and times it from outside: host wall and process
// CPU (user+sys, which includes the garbage collector's other threads).
func runPass(w workload, seed int64) pass {
	p := pass{seed: seed, cpu0: cpuTime(), start: time.Now()}
	w.run(seed, &p)
	p.wall = time.Since(p.start)
	p.cpu = cpuTime() - p.cpu0
	return p
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss is in KiB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally fills the counts every result carries, over the run's distinct
// inputs: attempted is the jobs of one cycle, failed the jobs among them
// that failed in any repetition. Both depend on the code and the seed
// only, not on how many cycles the host managed.
func tally(passes []pass) result {
	r := result{Metrics: map[string]metric{}}
	jobs, failed := map[int64]int{}, map[int64]int{}
	for _, p := range passes {
		jobs[p.seed] = p.jobs
		failed[p.seed] = max(failed[p.seed], p.failed)
	}
	for seed, n := range jobs {
		r.Attempted += n
		r.Failed += failed[seed]
	}
	r.Correct = r.Failed == 0
	return r
}

// endToEnd reduces the untraced passes to the end-to-end metrics. All
// times are process CPU time, which on a virtual machine excludes the time
// the hypervisor takes the CPU away (steal): pass and set-up times are
// medians over passes, the job percentile is over every job of the run.
func endToEnd(passes []pass) result {
	r := tally(passes)
	var cpu, setup, jobs []float64
	for i := range passes {
		p := &passes[i]
		cpu = append(cpu, p.cpu.Seconds())
		setup = append(setup, p.setupCPU().Seconds())
		total, _ := cpuCosts(p.recs, p.poolCPU)
		for _, d := range total {
			jobs = append(jobs, float64(d)/1e6)
		}
	}
	m := r.Metrics
	m["cpu_s"] = metric{median(cpu), "s"}
	m["setup_s"] = metric{median(setup), "s"}
	m["job_cpu_p90_ms"] = metric{percentile(jobs, 0.9), "ms"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	return r
}

// jobLatencies lists every job's runner wall time in milliseconds.
func jobLatencies(passes []pass) []float64 {
	var ms []float64
	for _, p := range passes {
		for i := range p.recs {
			ms = append(ms, float64(p.recs[i].wall)/1e6)
		}
	}
	return ms
}

// logPasses writes one line per pass to standard error.
func logPasses(name, kind string, passes []pass) {
	for i, p := range passes {
		fmt.Fprintf(os.Stderr, "%s %s pass %d seed %d: wall %.3fs cpu %.3fs setup %.4fs setup_cpu %.4fs jobs %d failed %d digest %s\n",
			name, kind, i, p.seed, p.wall.Seconds(), p.cpu.Seconds(), p.setup().Seconds(), p.setupCPU().Seconds(), p.jobs, p.failed, p.digest)
	}
}

// median is the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: the smallest sample with at
// least q of the samples at or below it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*q)) - 1
	return s[max(i, 0)]
}
