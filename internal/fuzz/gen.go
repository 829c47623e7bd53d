package fuzz

import "math"

// GenOptions bounds the generator. The zero value is the full-size
// configuration; Small tightens every budget for smoke tests and -short
// sweeps.
type GenOptions struct {
	MaxCores int  // default 6 (4 when Small); at most 64
	Small    bool // smaller loops, fewer phases: faster per-seed runs
}

func (o GenOptions) maxCores() int {
	if o.MaxCores > 0 {
		return o.MaxCores
	}
	if o.Small {
		return 4
	}
	return 6
}

// sm64 is splitmix64, the generator's only randomness source: every
// structural and numeric choice flows from the seed, so Generate is a
// pure function of (seed, options).
type sm64 struct{ s uint64 }

func (r *sm64) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *sm64) intn(n int) int      { return int(r.next() % uint64(n)) }
func (r *sm64) chance(pct int) bool { return r.intn(100) < pct }

// pick returns a random element of vals.
func (r *sm64) pick(vals []int64) int64 { return vals[r.intn(len(vals))] }

// Interesting value pools. Extremes and huge deltas are deliberately
// over-represented: symbolic tracking's increment arithmetic and interval
// folding have their corner cases at the int64 boundaries.
var (
	initPool = []int64{
		0, 1, 2, 7, 100, -1, -100,
		math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 4,
		math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 4,
		1 << 62, -(1 << 62),
	}
	deltaPool = []int64{
		1, 1, 1, 2, 3, -1, -2, 5, 17,
		1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64, math.MaxInt64 - 2,
	}
	lanePool = []int64{1, 2, 0x7f, 0xff, 0xabcd, 0x7fffffff, -1, 42}
)

// Generate derives a program from the seed: a machine shape (cores,
// shared words, optional hash table, structure-size overrides) and
// per-core statement lists mixing the idioms the oracles know how to
// check. Cross-core races arise by construction because cores draw their
// shared targets from the same small word set.
func Generate(seed int64, o GenOptions) *Prog {
	r := &sm64{s: uint64(seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03}
	p := &Prog{Seed: seed}

	p.Cores = 1 + r.intn(o.maxCores())
	if p.Cores == 1 && o.maxCores() > 1 && r.chance(75) {
		p.Cores = 2 + r.intn(o.maxCores()-1) // bias toward actual contention
	}

	nWords := 1 + r.intn(6)
	laneSizes := make([]uint8, nWords)
	for i := 0; i < nWords; i++ {
		w := WordSpec{Init: r.pick(initPool)}
		if r.chance(30) {
			w.Lane = true
			w.Init = r.pick(lanePool) // lane words start small: lanes are byte fields
			laneSizes[i] = []uint8{1, 2, 4}[r.intn(3)]
		}
		p.Words = append(p.Words, w)
	}
	if !hasCounter(p.Words) {
		p.Words[0].Lane = false // at least one counter word
		p.Words[0].Init = r.pick(initPool)
	}
	if r.chance(40) {
		p.TableSlots = 8 << r.intn(3) // 8, 16 or 32
	}
	if r.chance(25) {
		p.Constraint = []int{2, 3, 4, 8}[r.intn(4)]
	}
	if r.chance(25) {
		p.SSB = []int{4, 6, 8, 16}[r.intn(4)]
	}
	if r.chance(25) {
		p.IVB = []int{2, 3, 4, 8}[r.intn(4)]
	}

	g := &gen{r: r, p: p, o: o, laneSizes: laneSizes, nextKey: 1 + int64(r.intn(97))}
	for c := 0; c < p.Cores; c++ {
		p.Threads = append(p.Threads, g.thread(c))
	}
	// A program with no shared write checks nothing: force one increment.
	if !hasKind(p.Threads, KAdd) && !hasKind(p.Threads, KLane) {
		tx := Stmt{Kind: KTx, Body: []Stmt{{Kind: KAdd, Tgt: g.anyCounter(), N: r.pick(deltaPool)}}}
		p.Threads[0] = append(p.Threads[0], tx)
	}
	return p
}

type gen struct {
	r         *sm64
	p         *Prog
	o         GenOptions
	laneSizes []uint8
	nextKey   int64
	keys      int  // probes emitted so far (capped at TableSlots/2)
	txLoaded  bool // rLast defined in the transaction being generated
}

func (g *gen) maxPhases() int {
	if g.o.Small {
		return 2
	}
	return 3
}

func (g *gen) loopN() int64 {
	if g.o.Small {
		return int64(1 + g.r.intn(3))
	}
	return int64(1 + g.r.intn(5))
}

func (g *gen) thread(core int) []Stmt {
	var out []Stmt
	phases := 1 + g.r.intn(g.maxPhases())
	for ph := 0; ph < phases; ph++ {
		if g.r.chance(30) {
			out = append(out, Stmt{Kind: KBarrier})
		}
		if g.r.chance(25) {
			out = append(out, Stmt{Kind: KBusy, N: int64(1 + g.r.intn(48))})
		}
		loop := g.r.chance(50)
		txs := g.txBatch(core, loop)
		if loop {
			out = append(out, Stmt{Kind: KLoop, N: g.loopN(), Body: txs})
		} else {
			out = append(out, txs...)
		}
	}
	return out
}

// txBatch generates 1..2 transactions (plus occasional private filler).
// inLoop suppresses probe statements: keys must be inserted exactly once.
func (g *gen) txBatch(core int, inLoop bool) []Stmt {
	var out []Stmt
	for n := 1 + g.r.intn(2); n > 0; n-- {
		out = append(out, g.tx(core, inLoop))
		if g.r.chance(20) {
			out = append(out, Stmt{Kind: KPriv, Tgt: g.r.intn(privWords), N: g.r.pick(lanePool), Size: []uint8{1, 2, 4, 8}[g.r.intn(4)]})
		}
	}
	return out
}

func (g *gen) tx(core int, inLoop bool) Stmt {
	g.txLoaded = false
	// Decide up front whether this transaction's body repeats under an
	// in-tx loop: repetition multiplies the footprint, which is what
	// pushes the bounded RETCON structures (IVB / SSB / constraint
	// buffer) into their overflow paths. Probes are suppressed inside it.
	wrap := g.r.chance(15)
	var body []Stmt
	n := 1 + g.r.intn(5)
	for i := 0; i < n; i++ {
		if s, ok := g.txStmt(core, inLoop || wrap); ok {
			body = append(body, s)
		}
	}
	if len(body) == 0 {
		body = append(body, Stmt{Kind: KAdd, Tgt: g.anyCounter(), N: g.r.pick(deltaPool)})
	}
	if wrap {
		body = []Stmt{{Kind: KLoop, N: int64(2 + g.r.intn(3)), Body: body}}
	}
	return Stmt{Kind: KTx, Body: body}
}

func (g *gen) txStmt(core int, inLoop bool) (Stmt, bool) {
	switch w := g.r.intn(100); {
	case w < 35: // shared counter increment
		s := Stmt{Kind: KAdd, Tgt: g.anyCounter(), N: g.r.pick(deltaPool)}
		g.txLoaded = true
		return s, true
	case w < 55: // branch on a (possibly symbolic) shared value
		s := Stmt{Kind: KBranch, Tgt: g.anyCounter(), Cmp: []string{"beq", "bne", "blt", "bge", "ble", "bgt"}[g.r.intn(6)]}
		if g.txLoaded && g.r.chance(40) {
			s.Tgt = -1 // compare through rLast: the increment is already folded in
		}
		if g.r.chance(60) {
			s.Pre = g.r.pick(deltaPool)
		}
		s.Rhs = g.branchRhs(s)
		if g.r.chance(50) {
			s.Body = g.privateBody()
		}
		if s.Tgt >= 0 {
			g.txLoaded = true
		}
		return s, true
	case w < 68: // hash-probe insert
		if g.p.TableSlots == 0 || inLoop || g.keys >= g.p.TableSlots/2 {
			return Stmt{}, false
		}
		key := g.nextKey
		g.nextKey += int64(1 + g.r.intn(13))
		g.keys++
		return Stmt{Kind: KProbe, N: key}, true
	case w < 80: // byte-lane store
		tgt := g.anyLane(core)
		if tgt < 0 {
			return Stmt{}, false
		}
		return Stmt{Kind: KLane, Tgt: tgt, N: g.r.pick(lanePool), Size: g.laneSizes[tgt]}, true
	case w < 90: // save the symbolic value to private memory
		if !g.txLoaded {
			return Stmt{}, false
		}
		return Stmt{Kind: KSave, Tgt: g.r.intn(privWords)}, true
	default:
		return Stmt{Kind: KBusy, N: int64(1 + g.r.intn(16))}, true
	}
}

// branchRhs picks a compare constant that lands near the values the
// branch will actually observe, so both outcomes occur across seeds and
// the derived constraints sit on their boundaries.
func (g *gen) branchRhs(s Stmt) int64 {
	base := int64(0)
	if s.Tgt >= 0 {
		base = g.p.Words[s.Tgt].Init
	}
	jitter := int64(g.r.intn(7)) - 3
	switch g.r.intn(4) {
	case 0:
		return base + s.Pre + jitter // near the initial observation (wrapping)
	case 1:
		return g.r.pick(initPool)
	case 2:
		return jitter
	default:
		return base + s.Pre + int64(g.r.intn(200)) - 100
	}
}

func (g *gen) privateBody() []Stmt {
	var out []Stmt
	for n := 1 + g.r.intn(2); n > 0; n-- {
		if g.txLoaded && g.r.chance(40) {
			out = append(out, Stmt{Kind: KSave, Tgt: g.r.intn(privWords)})
		} else if g.r.chance(50) {
			out = append(out, Stmt{Kind: KPriv, Tgt: g.r.intn(privWords), N: g.r.pick(lanePool), Size: []uint8{1, 2, 4, 8}[g.r.intn(4)]})
		} else {
			out = append(out, Stmt{Kind: KBusy, N: int64(1 + g.r.intn(12))})
		}
	}
	return out
}

func (g *gen) anyCounter() int {
	for tries := 0; tries < 16; tries++ {
		i := g.r.intn(len(g.p.Words))
		if !g.p.Words[i].Lane {
			return i
		}
	}
	for i, w := range g.p.Words {
		if !w.Lane {
			return i
		}
	}
	return 0
}

// anyLane returns a lane word this core owns a lane in, or -1.
func (g *gen) anyLane(core int) int {
	for tries := 0; tries < 16; tries++ {
		i := g.r.intn(len(g.p.Words))
		if g.p.Words[i].Lane && (core+1)*int(g.laneSizes[i]) <= 8 {
			return i
		}
	}
	return -1
}

func hasCounter(ws []WordSpec) bool {
	for _, w := range ws {
		if !w.Lane {
			return true
		}
	}
	return false
}

func hasKind(threads [][]Stmt, kind string) bool {
	var scan func([]Stmt) bool
	scan = func(ss []Stmt) bool {
		for i := range ss {
			if ss[i].Kind == kind || scan(ss[i].Body) {
				return true
			}
		}
		return false
	}
	for _, t := range threads {
		if scan(t) {
			return true
		}
	}
	return false
}
