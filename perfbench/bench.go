package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// point is one grid point's outcome in one pass.
type point struct {
	res      *sim.Result
	err      error
	cpu      time.Duration // worker-thread CPU time, Build through Verify, plus trace decode
	sched    sim.SchedStats
	events   int64
	bytes    int64
	evDigest uint64
	// Allocation counts, taken only in the allocation pass.
	buildAllocs, runAllocs uint64
}

// pass is one execution of the whole grid.
type pass struct {
	traced bool
	wall   time.Duration
	cpu    time.Duration
	points []point
	self   map[string]time.Duration // span self times; traced passes only
	prof   []byte                   // CPU profile; traced passes only
}

// bench runs one workload's grid pass after pass on a single worker.
type bench struct {
	g     *grid
	seed  int64
	ws    map[string]workloads.Workload
	runs  []sweep.Run
	index map[sweep.Run]int
	pool  sim.MachinePool

	spans     *tracer // every span of the run
	tr        *tracer // spans when the current pass is traced, else nil
	nextPoint int64

	sink      traceSink
	cur       []point
	memStats  bool // count allocations around Build and Run
	sinkAlloc uint64

	// tamper, when set, edits each run's Result and recorded stream
	// before the correctness gate sees them (self-tests only).
	tamper func(res *sim.Result, trace *bytes.Buffer)
}

// traceSink is the sink handed to each run's recorder: the binary wire
// format into a reused in-memory buffer, plus a digest of every event
// the recorder flushed, so the decoded stream can be checked against it.
type traceSink struct {
	b      *bench
	buf    bytes.Buffer
	bin    *telemetry.BinarySink
	n      int64
	digest uint64
}

func (s *traceSink) reset() {
	s.buf.Reset()
	s.bin = telemetry.NewBinarySink(&s.buf)
	s.n, s.digest = 0, fnvOffset
}

func (s *traceSink) WriteEvents(evs []telemetry.Event) error {
	for i := range evs {
		s.digest = mixEvent(s.digest, &evs[i])
	}
	s.n += int64(len(evs))
	sp := s.b.tr.begin("telemetry.sink")
	var before uint64
	if s.b.memStats {
		before = mallocs()
	}
	err := s.bin.WriteEvents(evs)
	if s.b.memStats {
		s.b.sinkAlloc += mallocs() - before
	}
	s.b.tr.end(sp)
	return err
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h uint64, v int64) uint64 { return (h ^ uint64(v)) * fnvPrime }

// mixEvent folds every field of an event into a running digest.
func mixEvent(h uint64, e *telemetry.Event) uint64 {
	h = mix(h, e.Cycle)
	h = mix(h, int64(e.Core)|int64(e.Kind)<<32|int64(e.Cause)<<40)
	h = mix(h, e.Tx)
	h = mix(h, e.Block)
	h = mix(h, e.A)
	h = mix(h, e.B)
	h = mix(h, e.C)
	h = mix(h, e.D)
	return mix(h, e.E)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// setup resolves the workloads, expands the grid and builds the first
// machine, reps times, returning each repetition's CPU time and its
// workload-resolution part. Each repetition starts from a collected heap
// whose free memory has been returned to the operating system, so every
// repetition pays the same page faults. The last repetition's grid and
// machine are kept: the machine warms the pool for the first pass.
func (b *bench) setup(reps int) (total, resolve []time.Duration, err error) {
	var first *sim.Machine
	for r := 0; r < reps; r++ {
		debug.FreeOSMemory()
		t0 := processCPU()
		ws, err := b.g.resolve()
		if err != nil {
			return nil, nil, fmt.Errorf("resolve: %w", err)
		}
		t1 := processCPU()
		runs, err := b.g.expand(b.seed)
		if err != nil {
			return nil, nil, fmt.Errorf("expand: %w", err)
		}
		if len(runs) == 0 {
			return nil, nil, errors.New("grid expanded to no runs")
		}
		r0 := runs[0]
		bundle := ws[r0.Workload].Build(r0.Params.Cores, r0.Seed)
		m, err := sim.New(r0.Params, bundle.Mem, bundle.Programs)
		if err != nil {
			return nil, nil, fmt.Errorf("first machine: %w", err)
		}
		t2 := processCPU()
		total = append(total, t2-t0)
		resolve = append(resolve, t1-t0)
		b.ws, b.runs, first = ws, runs, m
	}
	b.index = make(map[sweep.Run]int, len(b.runs))
	for i, r := range b.runs {
		b.index[r] = i
	}
	b.pool.Put(first)
	b.sink.b = b
	return total, resolve, nil
}

// runPass executes the grid once through the sweep engine on one worker.
// Each grid point starts when the previous one has been verified.
func (b *bench) runPass(traced bool, prof *profiler) (pass, error) {
	p := pass{traced: traced, points: make([]point, len(b.runs))}
	b.cur = p.points
	from := len(b.spans.spans)
	if traced {
		b.tr = b.spans
		if err := prof.start(); err != nil {
			return p, err
		}
	}
	eng := sweep.Engine{Workers: 1, Tasks: b.task}
	k := 0
	c0 := processCPU()
	start := time.Now()
	sp := b.tr.begin("sweep.execute")
	eng.ExecuteStream(b.runs, func(o sweep.Outcome) {
		// The engine reports panics and errors here; the task itself
		// fills the rest of the point.
		if o.Err != nil {
			p.points[k].err = o.Err
		}
		k++
	})
	b.tr.end(sp)
	p.wall = time.Since(start)
	p.cpu = processCPU() - c0
	b.spans.point = -1
	if traced {
		b.tr = nil
		p.prof = prof.stop()
		p.self = b.spans.selfTimes(from)
		var tasks time.Duration
		for i := from; i < len(b.spans.spans); i++ {
			if s := &b.spans.spans[i]; s.Name == "point" {
				tasks += time.Duration(s.End - s.Start)
			}
		}
		p.self["sweep.dispatch"] = p.wall - tasks
	}
	return p, nil
}

// task is the engine's per-run function.
func (b *bench) task(t sweep.Task) (*sim.Result, error) {
	i := b.index[t.Run]
	pt := &b.cur[i]
	b.spans.point = b.nextPoint
	b.nextPoint++
	sp := b.tr.begin("point")
	// A panicking run leaves its spans open; close them as it unwinds.
	defer b.tr.unwind(sp)
	// The thread CPU clock is only meaningful while the goroutine stays
	// on one thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	res, err := b.simulate(t.Run, pt)
	pt.cpu = threadCPU() - c0
	pt.res, pt.err = res, err
	return res, err
}

// simulate runs one grid point: Build, machine reset, Run, Verify, and on
// recorded grids the decode and round-trip check of the event stream.
func (b *bench) simulate(r sweep.Run, pt *point) (*sim.Result, error) {
	w := b.ws[r.Workload]
	var a0 uint64
	sp := b.tr.begin("workloads.build")
	if b.memStats {
		a0 = mallocs()
	}
	bundle := w.Build(r.Params.Cores, r.Seed)
	if b.memStats {
		pt.buildAllocs = mallocs() - a0
	}
	b.tr.end(sp)

	sp = b.tr.begin("sim.reset")
	m, err := b.pool.Get(r.Params, bundle.Mem, bundle.Programs)
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if ok {
			b.pool.Put(m)
		} else {
			b.pool.Discard(m)
		}
	}()
	var rec *telemetry.Recorder
	if b.g.recorded {
		b.sink.reset()
		rec = telemetry.NewRecorder(&b.sink, 0)
		m.Record(rec)
	}

	sp = b.tr.begin("sim.run")
	if b.memStats {
		b.sinkAlloc = 0
		a0 = mallocs()
	}
	res, err := m.Run()
	if b.memStats {
		pt.runAllocs = mallocs() - a0 - b.sinkAlloc
	}
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	pt.sched = m.SchedStats()

	if bundle.Verify != nil {
		sp = b.tr.begin("workloads.verify")
		err = bundle.Verify(bundle.Mem)
		b.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
	}
	if b.tamper != nil {
		b.tamper(res, &b.sink.buf)
	}
	if rec != nil {
		if err := rec.Err(); err != nil {
			return nil, fmt.Errorf("trace sink: %w", err)
		}
		pt.bytes = int64(b.sink.buf.Len())
		sp = b.tr.begin("telemetry.decode")
		evs, err := telemetry.ReadEvents(bytes.NewReader(b.sink.buf.Bytes()))
		b.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("trace decode: %w", err)
		}
		h := uint64(fnvOffset)
		for i := range evs {
			h = mixEvent(h, &evs[i])
		}
		if int64(len(evs)) != b.sink.n || h != b.sink.digest {
			return nil, fmt.Errorf("trace does not round-trip: %d events recorded, %d decoded", b.sink.n, len(evs))
		}
		pt.events, pt.evDigest = b.sink.n, h
	}
	ok = true
	return res, nil
}

// resultDigest hashes every field of a Result.
func resultDigest(res *sim.Result) uint64 {
	js, err := json.Marshal(res)
	if err != nil {
		panic(err) // a Result is plain data; marshalling cannot fail
	}
	sum := sha256.Sum256(js)
	return binary.LittleEndian.Uint64(sum[:8])
}

// digests is the pass's combined digest of its Results and, on recorded
// grids, of its event streams.
type digests struct {
	Results string `json:"results"`
	Events  string `json:"events,omitempty"`
}

func passDigests(g *grid, pts []point) (digests, []uint64) {
	each := make([]uint64, len(pts))
	hr, he := sha256.New(), sha256.New()
	for i := range pts {
		if pts[i].res != nil {
			each[i] = resultDigest(pts[i].res)
		}
		hr.Write(binary.LittleEndian.AppendUint64(nil, each[i]))
		he.Write(binary.LittleEndian.AppendUint64(nil, pts[i].evDigest))
	}
	d := digests{Results: hex.EncodeToString(hr.Sum(nil)[:8])}
	if g.recorded {
		d.Events = hex.EncodeToString(he.Sum(nil)[:8])
	}
	return d, each
}

// lockstepCheck re-executes the sampled grid points under the lockstep
// scheduler on fresh machines and requires Results (and, on recorded
// grids, event streams) equal to those of the measured pass.
func (b *bench) lockstepCheck(ref []point, sample []int) []error {
	var errs []error
	for _, i := range sample {
		r := b.runs[i]
		if ref[i].err != nil {
			continue // already counted as failed
		}
		r.Params.Sched = sim.SchedLockstep
		bundle := b.ws[r.Workload].Build(r.Params.Cores, r.Seed)
		m, err := sim.New(r.Params, bundle.Mem, bundle.Programs)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		// Spans and allocation counting are off by now, so the sink only
		// digests the stream.
		sink := traceSink{b: b}
		if b.g.recorded {
			sink.reset()
			m.Record(telemetry.NewRecorder(&sink, 0))
		}
		res, err := m.Run()
		switch {
		case err != nil:
			errs = append(errs, fmt.Errorf("lockstep %s: %w", describe(r), err))
		case !reflect.DeepEqual(res, ref[i].res):
			errs = append(errs, fmt.Errorf("lockstep %s: Result differs from the event scheduler's", describe(r)))
		case b.g.recorded && (sink.n != ref[i].events || sink.digest != ref[i].evDigest):
			errs = append(errs, fmt.Errorf("lockstep %s: event stream differs from the event scheduler's", describe(r)))
		}
	}
	return errs
}

func describe(r sweep.Run) string {
	return fmt.Sprintf("%s/%v/%d/seed %d", r.Workload, r.Params.Mode, r.Params.Cores, r.Seed)
}

// sampleIndices picks k distinct grid points from the benchmark seed.
func sampleIndices(seed int64, n, k int) []int {
	k = min(k, n)
	s := uint64(seed)
	var out []int
	seen := make(map[int]bool, k)
	for len(out) < k {
		s += 0x9E3779B97F4A7C15
		z := (s ^ s>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		i := int((z ^ z>>31) % uint64(n))
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}
