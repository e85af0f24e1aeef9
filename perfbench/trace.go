package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// outDir holds the traced run's profile and span files, inside the
// checkout the benchmark runs in.
const outDir = ".bench_build/perfbench"

// runtimeMetrics are the runtime/metrics samples the traced run reports
// as deltas over its traced half.
var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() []float64 {
	samples := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// span is one timed interval of the traced run, written to the span file
// when the run ends. Parent is the index of the enclosing span, -1 for a
// pass.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// passSpans lays a traced pass out as spans relative to t0: the pass,
// its enumeration, and each job with its set-up and measured phase.
func passSpans(spans []span, t0 time.Time, p *pass) []span {
	us := func(t time.Time) int64 { return t.Sub(t0).Microseconds() }
	root := len(spans)
	spans = append(spans,
		span{fmt.Sprintf("pass seed=%d", p.seed), -1, us(p.start), p.wall.Microseconds()},
		span{"experiments.enumerate", root, us(p.start), p.enumerate.Microseconds()})
	for i := range p.recs {
		r := &p.recs[i]
		if r.ready.IsZero() || r.done.IsZero() {
			continue
		}
		setup := r.setup()
		job := len(spans)
		spans = append(spans,
			span{"job " + r.name, root, us(r.ready.Add(-setup)), r.wall.Microseconds()},
			span{"setup", job, us(r.ready.Add(-setup)), setup.Microseconds()},
			span{"run", job, us(r.ready), r.run().Microseconds()})
	}
	return spans
}

// traced spends half the budget on untraced passes and half on traced
// ones under a CPU profile, then runs the workload's probe on each traced
// pass outside the profile, and reports the per-layer metrics as means
// per traced pass. trace.overhead is the traced median pass wall time over
// the untraced one.
func traced(w workload, seed int64, budget time.Duration, host hostMeta) (result, error) {
	plain := measure(w, seed, budget/2, 0)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	base := fmt.Sprintf("%s-seed%d", w.name, seed)
	profPath := filepath.Join(outDir, base+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return result{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return result{}, err
	}
	t0 := time.Now()
	rt0 := readRuntime()
	passes := measure(w, seed, budget/2, 0)
	rt1 := readRuntime()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return result{}, err
	}
	if w.probe != nil {
		for i := range passes {
			w.probe(&passes[i])
		}
	}
	buckets, err := bucketProfile(profPath)
	if err != nil {
		return result{}, err
	}
	logPasses(w.name, "untraced", plain)
	logPasses(w.name, "traced", passes)

	r := tally(append(plain, passes...))
	n := float64(len(passes))
	m := r.Metrics
	per := func(name string, v float64, unit string) { m[name] = metric{v / n, unit} }

	var enumerate, run, warmBuild, dispatch time.Duration
	var machines, cycles, ff, hits, misses uint64
	var snap snapStats
	var oracle oracleStats
	var out outputs
	var spans []span
	for i := range passes {
		p := &passes[i]
		enumerate += p.enumerate
		dispatch += p.dispatch
		hits += p.warmHits
		misses += p.warmMisses
		for j := range p.recs {
			rec := &p.recs[j]
			run += rec.run()
			warmBuild += rec.warmBuild
			machines += uint64(rec.machines)
			cycles += rec.cycles
			ff += rec.ff
		}
		snap.export += p.snap.export
		snap.encode += p.snap.encode
		snap.decode += p.snap.decode
		snap.restore += p.snap.restore
		snap.count += p.snap.count
		snap.bytes += p.snap.bytes
		oracle.exact += p.oracle.exact
		oracle.legacy += p.oracle.legacy
		oracle.outcomes += p.oracle.outcomes
		out.simCycles += p.out.simCycles
		out.scRC += p.out.scRC
		out.cells += p.out.cells
		out.relaxed += p.out.relaxed
		machines += uint64(p.hiddenMachines)
		spans = passSpans(spans, t0, p)
	}

	per("experiments.enumerate_s", enumerate.Seconds(), "s")
	per("sim.machines", float64(machines), "count")
	per("sim.run_s", run.Seconds(), "s")
	per("sim.cycles", float64(cycles), "cycles")
	per("sim.stepped_cycles", float64(cycles-ff), "cycles")
	per("sim.ff_cycles", float64(ff), "cycles")
	m["sim.ff_ratio"] = metric{ratio(float64(ff), float64(cycles)), "ratio"}
	m["sim.ns_per_step"] = metric{ratio(float64(run.Nanoseconds()), float64(cycles-ff)), "ns"}
	var total time.Duration
	for _, b := range profileBuckets {
		total += buckets[b.name]
		per(b.metric, buckets[b.name].Seconds(), "s")
	}
	total += buckets[otherBucket]
	per("profile.other_s", buckets[otherBucket].Seconds(), "s")
	per("profile.total_s", total.Seconds(), "s")
	per("conformance.exact_s", oracle.exact.Seconds(), "s")
	per("conformance.legacy_s", oracle.legacy.Seconds(), "s")
	per("conformance.outcomes", float64(oracle.outcomes), "count")
	per("snapshot.export_s", snap.export.Seconds(), "s")
	per("snapshot.encode_s", snap.encode.Seconds(), "s")
	per("snapshot.decode_s", snap.decode.Seconds(), "s")
	per("snapshot.restore_s", snap.restore.Seconds(), "s")
	per("snapshot.count", float64(snap.count), "count")
	per("snapshot.bytes", float64(snap.bytes), "B")
	per("runner.warmup_hits", float64(hits), "count")
	per("runner.warmup_misses", float64(misses), "count")
	per("runner.warmup_build_s", warmBuild.Seconds(), "s")
	per("runner.dispatch_s", dispatch.Seconds(), "s")
	per("runtime.alloc_mb", (rt1[0]-rt0[0])/(1<<20), "MB")
	per("runtime.allocs", rt1[1]-rt0[1], "count")
	per("runtime.gc_cycles", rt1[2]-rt0[2], "count")
	per("runtime.gc_cpu_s", rt1[3]-rt0[3], "s")
	per("result.sim_cycles", float64(out.simCycles), "cycles")
	per("result.sc_rc_ratio", out.scRC, "ratio")
	per("result.cells", float64(out.cells), "count")
	per("result.relaxed_outcomes", float64(out.relaxed), "count")
	var wall, setup []float64
	for i := range plain {
		wall = append(wall, plain[i].wall.Seconds())
		setup = append(setup, plain[i].setup().Seconds())
	}
	m["runner.pass_wall_s"] = metric{median(wall), "s"}
	m["runner.setup_wall_s"] = metric{median(setup), "s"}
	lat := jobLatencies(plain)
	m["runner.job_p50_ms"] = metric{percentile(lat, 0.5), "ms"}
	m["runner.job_p90_ms"] = metric{percentile(lat, 0.9), "ms"}
	m["runner.job_samples"] = metric{float64(len(lat)), "count"}
	m["trace.overhead"] = metric{ratio(medianWall(passes), median(wall)), "ratio"}

	bucketS := map[string]float64{}
	for k, v := range buckets {
		bucketS[k] = v.Seconds()
	}
	err = writeJSON(base+".trace.json", map[string]any{
		"host": host, "workload": w.name, "seed": seed,
		"traced_passes": len(passes), "profile_buckets_s": bucketS, "spans": spans,
	})
	return r, err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianWall(passes []pass) float64 {
	var w []float64
	for _, p := range passes {
		w = append(w, p.wall.Seconds())
	}
	return median(w)
}

// writeJSON writes v as indented JSON to name under outDir.
func writeJSON(name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), data, 0o644)
}
