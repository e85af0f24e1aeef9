package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// profileBuckets names the functions whose samples make up each bucket of
// the traced run's CPU profile: the Step phases in Step's call order, the
// idle skip, machine construction and the two conformance oracles.
//
// Buckets are inclusive-cumulative: a sample belongs to the bucket of the
// outermost (closest to the root) frame on its stack that names one, so a
// bucket holds its functions' own time and that of everything they call —
// network.deliver includes the handlers Deliver invokes, conformance.exact
// the whole state search. Because each sample lands in exactly one bucket,
// recursion (the oracles' search, for one) is counted once, and the
// buckets plus "other" sum to the profiled total. "other" is everything
// under no named frame: the run loop itself, job set-up outside sim.New,
// row harvesting, and the garbage collector's background workers.
var profileBuckets = []struct {
	name, metric string
	funcs        []string
}{
	{"cpu.frontend", "cpu.frontend_s", []string{"mcmsim/internal/cpu.(*Proc).TickFrontend"}},
	{"network.deliver", "network.deliver_s", []string{"mcmsim/internal/network.(*Network).Deliver"}},
	{"coherence.tick", "coherence.tick_s", []string{"mcmsim/internal/coherence.(*Directory).Tick"}},
	{"cache.tick", "cache.tick_s", []string{"mcmsim/internal/cache.(*Cache).Tick"}},
	{"core.complete", "core.complete_s", []string{"mcmsim/internal/core.(*LSU).TickComplete"}},
	{"cpu.execute", "cpu.execute_s", []string{"mcmsim/internal/cpu.(*Proc).TickExecute"}},
	{"cpu.retire", "cpu.retire_s", []string{"mcmsim/internal/cpu.(*Proc).TickRetire"}},
	{"core.issue", "core.issue_s", []string{"mcmsim/internal/core.(*LSU).TickIssue"}},
	{"sim.idle_skip", "sim.idle_skip_s", []string{"mcmsim/internal/sim.(*System).skipIdleCycles"}},
	{"sim.build", "sim.build_s", []string{"mcmsim/internal/sim.New", "mcmsim/internal/sim.Restore"}},
	{"conformance.exact", "profile.conformance.exact_s", []string{"mcmsim/internal/conformance.ModelOutcomes"}},
	{"conformance.legacy", "profile.conformance.legacy_s", []string{"mcmsim/internal/conformance.LegacyModelOutcomes"}},
}

// otherBucket holds the samples under no named frame.
const otherBucket = "other"

// bucketOf maps one stack, leaf first as pprof prints it, to its bucket.
func bucketOf(stack []string) string {
	for i := len(stack) - 1; i >= 0; i-- {
		for _, b := range profileBuckets {
			for _, f := range b.funcs {
				if stack[i] == f {
					return b.name
				}
			}
		}
	}
	return otherBucket
}

// bucketProfile runs `go tool pprof -traces` on a CPU profile and sums its
// samples into buckets.
func bucketProfile(path string) (map[string]time.Duration, error) {
	out, err := pprofOutput("-traces", path)
	if err != nil {
		return nil, err
	}
	return bucketTraces(strings.NewReader(out))
}

// pprofOutput runs `go tool pprof` in one text report mode.
func pprofOutput(mode, path string) (string, error) {
	out, err := exec.Command("go", "tool", "pprof", mode, path).Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof %s %s: %w", mode, path, err)
	}
	return string(out), nil
}

// traceSeparator starts every sample of `pprof -traces` output.
const traceSeparator = "-----------+"

// bucketTraces sums `pprof -traces` output into buckets. Each sample is a
// separator line, then its frames leaf first, one per line, the first of
// them prefixed by the sample's value (for example "10ms" or "1.20s");
// inlined frames carry an "(inline)" suffix, which is dropped.
func bucketTraces(r io.Reader) (map[string]time.Duration, error) {
	sums := map[string]time.Duration{}
	var value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			sums[bucketOf(stack)] += value
		}
		value, stack = 0, nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	started := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, traceSeparator) {
			flush()
			started = true
			continue
		}
		f := strings.Fields(line)
		if !started || len(f) == 0 {
			continue
		}
		if len(stack) == 0 {
			if len(f) < 2 {
				return nil, fmt.Errorf("pprof traces: want value and frame, got %q", line)
			}
			v, err := time.ParseDuration(f[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %w", f[0], err)
			}
			value = v
			f = f[1:]
		}
		stack = append(stack, f[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !started {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	return sums, nil
}
