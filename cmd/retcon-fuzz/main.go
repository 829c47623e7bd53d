// Command retcon-fuzz drives the differential fuzzing harness over seed
// ranges: each seed generates a random machine configuration
// (internal/fuzz) and checks it under the scheduler-differential, replay
// and statistics oracles across all three conflict-handling modes.
//
// Usage:
//
//	retcon-fuzz -seeds 0:10000                 # check a seed range
//	retcon-fuzz -seeds 0:10000 -short          # smaller programs, faster
//	retcon-fuzz -seeds 5000 -jsonl div.jsonl   # 0:5000, JSONL divergence report
//	retcon-fuzz -seeds 0:100 -corpus out/      # write minimized reproducers
//	retcon-fuzz -seeds 0:1000 -max-cores 64    # machines of up to 64 cores
//
// Every divergence is minimized by the shrinker and reported; with
// -corpus the reproducer is also written as a corpus entry ready to
// commit under internal/fuzz/testdata/corpus/. The exit status is 0 only
// when every seed passes every oracle.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/fuzz"
	"repro/internal/sweep"
)

func main() {
	seedsFlag := flag.String("seeds", "0:1000", "seed range lo:hi (hi exclusive), or a count N meaning 0:N")
	workers := flag.Int("workers", 0, "worker-pool size (default: GOMAXPROCS)")
	short := flag.Bool("short", false, "generate smaller programs (faster per seed)")
	maxCores := flag.Int("max-cores", 0, "largest generated machine, at most 64 (default 6, or 4 with -short)")
	maxCycles := flag.Int64("maxcycles", 0, "per-run watchdog cycles (default: harness default)")
	noShrink := flag.Bool("no-shrink", false, "report divergences without minimizing them")
	corpusDir := flag.String("corpus", "", "write minimized reproducers to this directory")
	jsonlPath := flag.String("jsonl", "", "write divergence records as JSON lines ('-' = stdout)")
	progress := flag.Int("progress", 1000, "print progress every N seeds (0 = quiet)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "retcon-fuzz:", err)
		os.Exit(2)
	}

	lo, hi, err := parseRange(*seedsFlag)
	if err != nil {
		fail(err)
	}
	n := int(hi - lo)
	if *maxCores < 0 || *maxCores > 64 {
		fail(fmt.Errorf("-max-cores %d out of [0,64]", *maxCores))
	}
	gopt := fuzz.GenOptions{Small: *short, MaxCores: *maxCores}
	opt := fuzz.Options{MaxCycles: *maxCycles}

	var jsonlW *json.Encoder
	if *jsonlPath != "" {
		w := os.Stdout
		if *jsonlPath != "-" {
			f, err := os.Create(*jsonlPath)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			w = f
		}
		jsonlW = json.NewEncoder(w)
	}

	start := time.Now()
	type outcome struct {
		div  *fuzz.Divergence
		prog *fuzz.Prog // minimized reproducer when div != nil
	}
	get, wait := sweep.Dispatch(n, *workers, func(i int) outcome {
		seed := lo + int64(i)
		p := fuzz.Generate(seed, gopt)
		d := fuzz.Check(p, opt)
		if d == nil {
			return outcome{}
		}
		min := p
		if !*noShrink {
			min = fuzz.Shrink(p, func(q *fuzz.Prog) bool {
				qd := fuzz.Check(q, opt)
				return qd != nil && qd.Oracle == d.Oracle
			}, 400)
			// Re-check the minimized form so the reported detail matches it.
			if qd := fuzz.Check(min, opt); qd != nil {
				d = qd
				d.Seed = seed
			}
		}
		return outcome{div: d, prog: min}
	})

	divergent := 0
	byOracle := map[string]int{}
	for i := 0; i < n; i++ {
		o := get(i)
		seed := lo + int64(i)
		if *progress > 0 && (i+1)%*progress == 0 {
			fmt.Fprintf(os.Stderr, "retcon-fuzz: %d/%d seeds, %d divergences, %.1fs\n",
				i+1, n, divergent, time.Since(start).Seconds())
		}
		if o.div == nil {
			continue
		}
		divergent++
		byOracle[o.div.Oracle]++
		fmt.Fprintf(os.Stderr, "DIVERGENCE seed=%d oracle=%s mode=%s\n  %s\n",
			seed, o.div.Oracle, o.div.Mode, strings.ReplaceAll(o.div.Detail, "\n", "\n  "))
		if jsonlW != nil {
			rec := struct {
				*fuzz.Divergence
				Prog *fuzz.Prog `json:"prog"`
			}{o.div, o.prog}
			if err := jsonlW.Encode(rec); err != nil {
				fail(err)
			}
		}
		if *corpusDir != "" {
			e := &fuzz.Entry{
				Name:   fmt.Sprintf("seed%d-%s", seed, o.div.Oracle),
				Bug:    "minimized by retcon-fuzz; describe the root cause before committing",
				Oracle: o.div.Oracle,
				Prog:   *o.prog,
			}
			path, err := fuzz.WriteEntry(*corpusDir, e)
			if err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "  reproducer: %s\n", path)
		}
	}
	wait()

	fmt.Printf("retcon-fuzz: %d seeds (%d:%d), %d divergences", n, lo, hi, divergent)
	if divergent > 0 {
		fmt.Printf(" (")
		first := true
		for _, k := range []string{fuzz.OracleSched, fuzz.OracleReplay, fuzz.OracleMemory, fuzz.OracleStats, fuzz.OracleRun} {
			if byOracle[k] > 0 {
				if !first {
					fmt.Printf(", ")
				}
				fmt.Printf("%s: %d", k, byOracle[k])
				first = false
			}
		}
		fmt.Printf(")")
	}
	fmt.Printf(", %.1fs\n", time.Since(start).Seconds())
	if divergent > 0 {
		os.Exit(1)
	}
}

func parseRange(s string) (lo, hi int64, err error) {
	if i := strings.IndexByte(s, ':'); i >= 0 {
		lo, err = strconv.ParseInt(s[:i], 10, 64)
		if err == nil {
			hi, err = strconv.ParseInt(s[i+1:], 10, 64)
		}
	} else {
		hi, err = strconv.ParseInt(s, 10, 64)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("bad -seeds %q (want lo:hi or N)", s)
	}
	if hi <= lo {
		return 0, 0, fmt.Errorf("empty seed range %d:%d", lo, hi)
	}
	return lo, hi, nil
}
