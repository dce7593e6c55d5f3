// Command perfbench is the repository's benchmark: it drives a training
// job's input pipeline, and optionally its checkpoints, through MONARCH
// on real files, and reports end-to-end and per-layer metrics.
//
// Tier 0 is an OSFS directory; the PFS is an OSFS directory behind a
// stand-in that paces every operation with the deterministic part of
// simstore.LustreSpec(). The dataset is a TFRecord set generated from
// the seed. See README.md for the workloads and metrics.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload epoch-fit --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is a JSON object with the fields
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics of one untraced run; --trace 1 makes an untraced
// and a traced run and reports the per-layer metrics. The exit code is
// non-zero when any check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// memLimit is the Go memory limit the benchmark runs under.
const memLimit = 128 << 20

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run, or \"all\"")
	seed := flag.Uint64("seed", 1, "seed for the dataset, shuffle order and checkpoint payloads")
	seconds := flag.Float64("seconds", 10, "length of the measured phase of a run")
	traced := flag.Int("trace", 0, "1 adds a traced run and reports per-layer metrics")
	dir := flag.String("dir", ".bench_run", "scratch directory for the tiers; removed at exit")
	spans := flag.String("spans", ".bench_spans", "directory the traced run's spans are written to")
	corrupt := flag.String("corrupt", "", "flip one byte of a \"shard\" or a \"checkpoint\" on the PFS, to test the checks")
	flag.Parse()
	// A trainer's own heap makes collections rare next to its input
	// pipeline's garbage; without this, a bare process's tiny heap
	// collects every few reads and throughput swings 30-50% between
	// identical runs (README.md, "Runtime settings and noise").
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(memLimit)

	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 || *seconds <= 0 || (*corrupt != "" && *corrupt != "shard" && *corrupt != "checkpoint") {
		flag.Usage()
		os.Exit(2)
	}
	root := filepath.Join(*dir, strconv.Itoa(os.Getpid()))
	res, err := benchmark(ws, opts{seed: *seed, seconds: *seconds, traced: *traced == 1, dir: root, spans: *spans, corrupt: *corrupt})
	if rmErr := os.RemoveAll(root); rmErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", rmErr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type opts struct {
	seed    uint64
	seconds float64
	traced  bool
	dir     string
	spans   string
	corrupt string
}

// benchmark runs each workload and prints its metrics as it goes.
func benchmark(ws []workload, o opts) (result, error) {
	res := result{Metrics: map[string]resultValue{}}
	for _, w := range ws {
		ms, attempted, failed, err := runWorkload(w, o)
		if err != nil {
			return res, err
		}
		res.Attempted += attempted
		res.Failed += failed
		for _, m := range ms {
			key := m.name
			if len(ws) > 1 {
				key = w.name + "." + m.name
			}
			res.Metrics[key] = resultValue{Value: m.value, Unit: m.unit}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runWorkload generates the fixture and makes the workload's runs. It
// returns the metrics the JSON line carries for it.
func runWorkload(w workload, o opts) ([]metric, int64, int64, error) {
	ctx := context.Background()
	dir := filepath.Join(o.dir, w.name)
	defer func() {
		// Free the disk before the next workload of a --workload all run.
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}()
	fx, err := makeFixture(ctx, filepath.Join(dir, "pfs"), w.shards, o.seed)
	if err != nil {
		return nil, 0, 0, err
	}
	if o.corrupt == "shard" {
		if err := fx.corrupt(o.seed); err != nil {
			return nil, 0, 0, err
		}
	}
	fmt.Printf("# %s: %s\n", w.name, w.why)
	fmt.Printf("# config: %d shards (%.0f MiB, %d records), tier-0 quota %.2fx dataset, %d loader(s) per node, %s, seed %d\n",
		len(fx.shards), float64(fx.bytes)/mib, fx.records(), w.quota, w.loaders, w.describe(), o.seed)
	newRun := func(rec *recorder, sub string) *run {
		return &run{w: w, fx: fx, dir: filepath.Join(dir, sub), rec: rec, seed: o.seed,
			dur: time.Duration(o.seconds * float64(time.Second)), corrupt: o.corrupt == "checkpoint"}
	}
	u := newRun(nil, "untraced")
	if err := u.execute(ctx); err != nil {
		return nil, 0, 0, err
	}
	attempted, failed := u.counts()
	e2e := u.endToEnd()
	fmt.Printf("# untraced run: %d epochs; warm epoch quartiles %s s; cold epoch of each instance %s s\n",
		u.epochs, seconds(quantile(ns(u.warm), 0.25), median(ns(u.warm)), quantile(ns(u.warm), 0.75)), seconds(ns(u.colds)...))
	printMetrics(w.name, e2e)
	printMetrics(w.name, u.unbounded())
	if !o.traced {
		return e2e, attempted, failed, nil
	}

	t := newRun(newRecorder(), "traced")
	if err := t.execute(ctx); err != nil {
		return nil, 0, 0, err
	}
	layers := perLayer(t, u)
	fmt.Printf("# traced run: %d epochs\n", t.epochs)
	printMetrics(w.name, layers)
	if err := os.MkdirAll(o.spans, 0o755); err != nil {
		return nil, 0, 0, err
	}
	path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.tsv", w.name, o.seed))
	if err := writeSpans(path, t.rec.spans()); err != nil {
		return nil, 0, 0, err
	}
	fmt.Printf("# spans: %s\n", path)
	ta, tf := t.counts()
	return layers, attempted + ta, failed + tf, nil
}

// describe names the workload's read call and what runs beside it.
func (w workload) describe() string {
	s := "ReadAt"
	if w.view {
		s = "ReadView"
	}
	if w.ckpt {
		s += fmt.Sprintf(", write-back checkpoints of %dx%d MiB every %v (journal not fsynced, default dirty budget and flushers)",
			ckptShards, ckptShardBytes>>20, ckptPeriod)
	}
	if w.peer {
		s += ", 2 nodes over loopback TCP (R=1, client PoolSize 1)"
	}
	return s
}

// seconds formats nanosecond counts as seconds.
func seconds[T int64 | float64](xs ...T) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4f", float64(x)/1e9)
	}
	return b.String()
}

func printMetrics(workload string, ms []metric) {
	for _, m := range ms {
		line := fmt.Sprintf("%-16s %-32s %14.4f %s", workload, m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Println(line)
	}
}
