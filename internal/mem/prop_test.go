package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"
)

// model is a fully materialized reference for an Image: a []byte of the
// image's logical size, the allocator's break, and the end of the last
// allocation (0 before the first), which the prefix must cover.
type model struct {
	img       *Image
	ref       []byte
	brk       int64
	allocated int64
}

func newModel(size int64) *model {
	img := NewImage(size)
	return &model{img: img, ref: make([]byte, img.Size()), brk: BlockSize}
}

func (md *model) read(addr int64, size uint8) int64 {
	var buf [8]byte
	copy(buf[:], md.ref[addr:addr+int64(size)])
	return int64(binary.LittleEndian.Uint64(buf[:]))
}

func (md *model) write(addr int64, size uint8, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	copy(md.ref[addr:addr+int64(size)], buf[:size])
}

// checkBacking asserts the materialized prefix's invariants: whole
// blocks, covering every allocation, and capacity no more than twice the
// footprint (or the first minBacking bytes), capped at the logical size.
func (md *model) checkBacking(t *testing.T, where string) {
	t.Helper()
	m := md.img
	n := m.Materialized()
	if n%BlockSize != 0 {
		t.Fatalf("%s: materialized prefix %d is not whole blocks", where, n)
	}
	if n < md.allocated || n > m.Size() {
		t.Fatalf("%s: materialized prefix %d outside [allocated %d, size %d]", where, n, md.allocated, m.Size())
	}
	if c := int64(cap(m.data)); c > min(max(2*n, minBacking), m.Size()) {
		t.Fatalf("%s: capacity %d exceeds min(max(2×%d, %d), size %d)", where, c, n, minBacking, m.Size())
	}
}

// firstDiffWord is DiffWord on the reference bytes.
func firstDiffWord(a, b []byte) int64 {
	n := min(len(a), len(b))
	for w := 0; w+WordSize <= n; w += WordSize {
		if !bytes.Equal(a[w:w+WordSize], b[w:w+WordSize]) {
			return int64(w)
		}
	}
	return -1
}

// pickAddr returns an address, aligned or not, for a size-byte access
// anywhere in the image, biased toward the interesting edges: the
// materialized prefix's end, the break and the logical end. One pick in
// wide is uniform over the whole image; writes keep that rare so the
// prefix does not fill the image early in a sequence.
func pickAddr(r *rand.Rand, md *model, size uint8, wide int) int64 {
	limit := md.img.Size() - int64(size) // last valid start
	var a int64
	switch {
	case r.IntN(wide) == 0:
		a = r.Int64N(limit + 1)
	case r.IntN(8) == 0:
		a = limit - r.Int64N(16)
	case r.IntN(4) == 0:
		a = md.brk - 8 + r.Int64N(16)
	default:
		a = md.img.Materialized() - 8 + r.Int64N(16)
	}
	return min(max(a, 0), limit)
}

// TestImageMatchesReference runs random sequences of Alloc, WriteInt and
// ReadInt (every size, any address in the image), ReadBlockWords, Equal
// and DiffWord against two images and their fully materialized
// references. Every answer must match the reference, no read or
// comparison may grow the backing, and growth keeps capacity within
// twice the footprint.
func TestImageMatchesReference(t *testing.T) {
	sizes := []int64{1, 3*BlockSize + 1, 1 << 12, 1 << 16, 1 << 18, 1 << 20}
	rounds := 200
	if testing.Short() {
		rounds = 40
	}
	for seq := 0; seq < rounds; seq++ {
		r := rand.New(rand.NewPCG(uint64(seq), 0x5EED))
		size := sizes[seq%len(sizes)]
		ms := [2]*model{newModel(size), newModel(size)}
		for step := 0; step < 400; step++ {
			md := ms[r.IntN(2)]
			m := md.img
			where := fmt.Sprintf("seq %d step %d", seq, step)
			before := [2]int64{ms[0].img.Materialized(), ms[1].img.Materialized()}
			mutates := false
			switch op := r.IntN(10); {
			case op == 0:
				mutates = true
				n := r.Int64N(m.Size() / 16)
				align := int64(1) << r.IntN(13)
				base := (md.brk + align - 1) &^ (align - 1)
				if base+n > m.Size() {
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("%s: Alloc(%d, %d) past size %d must panic", where, n, align, m.Size())
							}
						}()
						m.Alloc(n, align)
					}()
					break
				}
				if got := m.Alloc(n, align); got != base {
					t.Fatalf("%s: Alloc = %d, want %d", where, got, base)
				}
				md.brk = base + n
				md.allocated = md.brk
			case op <= 4:
				mutates = true
				sz := uint8(1) << r.IntN(4)
				addr := pickAddr(r, md, sz, 32)
				v := int64(r.Uint64())
				m.WriteInt(addr, sz, v)
				md.write(addr, sz, v)
				if end := addr + int64(sz); m.Materialized() < end {
					t.Fatalf("%s: write [%d,+%d) left prefix at %d", where, addr, sz, m.Materialized())
				}
			case op <= 7:
				sz := uint8(1) << r.IntN(4)
				addr := pickAddr(r, md, sz, 4)
				if got, want := m.ReadInt(addr, sz), md.read(addr, sz); got != want {
					t.Fatalf("%s: ReadInt(%d, %d) = %#x, want %#x", where, addr, sz, got, want)
				}
			case op == 8:
				addr := pickAddr(r, md, 1, 4)
				got := [WordsPerBlock]int64{-1, -1, -1, -1, -1, -1, -1, -1}
				m.ReadBlockWords(addr, &got)
				base := BlockBase(addr)
				for i := range got {
					if want := md.read(base+int64(i)*WordSize, 8); got[i] != want {
						t.Fatalf("%s: ReadBlockWords(%d)[%d] = %#x, want %#x", where, addr, i, got[i], want)
					}
				}
			default:
				a, b := ms[0], ms[1]
				wantEq := bytes.Equal(a.ref, b.ref)
				if a.img.Equal(b.img) != wantEq || b.img.Equal(a.img) != wantEq {
					t.Fatalf("%s: Equal disagrees with reference (want %v)", where, wantEq)
				}
				want := firstDiffWord(a.ref, b.ref)
				if got := a.img.DiffWord(b.img); got != want {
					t.Fatalf("%s: DiffWord = %d, want %d", where, got, want)
				}
				if got := b.img.DiffWord(a.img); got != want {
					t.Fatalf("%s: reversed DiffWord = %d, want %d", where, got, want)
				}
			}
			for i, o := range ms {
				got := o.img.Materialized()
				if o == md && mutates {
					if got < before[i] {
						t.Fatalf("%s: prefix shrank from %d to %d", where, before[i], got)
					}
				} else if got != before[i] {
					t.Fatalf("%s: a read or comparison grew image %d's prefix from %d to %d", where, i, before[i], got)
				}
				o.checkBacking(t, where)
			}
		}
	}
}
