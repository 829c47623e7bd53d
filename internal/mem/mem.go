// Package mem provides the simulated physical memory image, a simple bump
// allocator for laying out workload data, and the cache-block geometry
// constants shared by the memory system.
//
// An image has a fixed logical size, but only the prefix that allocation
// and writes have reached is backed by host memory; the rest reads as
// zero. Workloads declare images far larger than they lay out, so the
// host pays for the footprint, not the declaration.
//
// The image holds the *architectural* value of every byte at all times;
// caches in this simulator are timing-only. Transactional isolation is
// enforced by the conflict-detection layer (no other core is permitted to
// read a speculatively written block), and rollback restores bytes from the
// transaction's undo log.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Cache-block geometry (Table 1: 64-byte blocks).
const (
	BlockShift    = 6
	BlockSize     = 1 << BlockShift
	WordSize      = 8
	WordsPerBlock = BlockSize / WordSize
)

// BlockOf returns the block number containing the byte address.
func BlockOf(addr int64) int64 { return addr >> BlockShift }

// BlockBase returns the first byte address of the block containing addr.
func BlockBase(addr int64) int64 { return addr &^ (BlockSize - 1) }

// WordAddr returns the 8-byte-aligned word address containing addr.
func WordAddr(addr int64) int64 { return addr &^ (WordSize - 1) }

// Image is a byte-addressable memory of a fixed logical size with a bump
// allocator. Only a materialized prefix [0, Materialized()) has host
// backing; every byte past it reads as zero until something writes there.
// Alloc extends the prefix over each allocation, so a workload whose run
// touches only allocated memory never grows it, and a large logical image
// costs the host no more than the part its build lays out.
type Image struct {
	// data is the materialized prefix. Its length is a whole number of
	// blocks, and every byte in [len(data), cap(data)) is zero: writes
	// only ever land below len(data).
	data []byte
	size int64 // logical size in bytes, a whole number of blocks
	brk  int64
}

// minBacking is the smallest capacity the backing grows to. An image no
// larger than it, such as every compiled workload spec and fuzz program,
// is backed whole by its first allocation and never reallocated.
const minBacking = 64 << 10

// NewImage creates a memory image of the given size in bytes, rounded up
// to a whole number of cache blocks so that every byte of the image lies in
// a complete block (the coherence directory is a dense per-block array
// sized by Blocks). The first block is reserved so that address 0 is never
// a valid allocation (workloads use 0 as a null/empty sentinel). No host
// memory is backed until the image is allocated from or written.
func NewImage(size int64) *Image {
	if size < 2*BlockSize {
		size = 2 * BlockSize
	}
	size = (size + BlockSize - 1) &^ (BlockSize - 1)
	return &Image{size: size, brk: BlockSize}
}

// Size returns the logical size of the image in bytes.
func (m *Image) Size() int64 { return m.size }

// Blocks returns the number of cache blocks the image spans. Block numbers
// 0..Blocks()-1 are exactly the valid blocks; any access outside them is
// out of the image and fails loudly.
func (m *Image) Blocks() int64 { return m.size >> BlockShift }

// Materialized returns the length of the backed prefix in bytes: a whole
// number of blocks covering every allocation and every byte ever written.
func (m *Image) Materialized() int64 { return int64(len(m.data)) }

// InRange reports whether the n bytes at addr lie inside the image.
// Verifiers that follow pointers loaded from memory check links with it
// rather than letting a corrupted one panic.
func (m *Image) InRange(addr, n int64) bool {
	return addr >= 0 && n >= 0 && addr <= m.size-n
}

// Alloc reserves n bytes aligned to align (a power of two, at least 1) and
// returns the base address. It panics when the image is exhausted; workload
// layout is computed at build time, so exhaustion is a configuration bug.
func (m *Image) Alloc(n, align int64) int64 {
	if n < 0 {
		panic("mem: negative allocation")
	}
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: bad alignment %d", align))
	}
	base := (m.brk + align - 1) &^ (align - 1)
	if base+n > m.size {
		panic(fmt.Sprintf("mem: out of memory: need %d bytes at %d, image size %d", n, base, m.size))
	}
	m.brk = base + n
	m.materialize(m.brk)
	return base
}

// AllocBlocks reserves n bytes aligned to a cache block. Workloads use this
// for shared structures so that distinct structures never share a block
// unless the workload wants false sharing.
func (m *Image) AllocBlocks(n int64) int64 { return m.Alloc(n, BlockSize) }

// materialize extends the backed prefix to cover [0, end), end <= Size().
// Capacity at least doubles on each reallocation (capped at the logical
// size), so a build copies about as many bytes as it lays out.
func (m *Image) materialize(end int64) {
	n := (end + BlockSize - 1) &^ (BlockSize - 1)
	if n <= int64(len(m.data)) {
		return
	}
	if n > int64(cap(m.data)) {
		grown := make([]byte, n, min(max(n, 2*int64(cap(m.data)), minBacking), m.size))
		copy(grown, m.data)
		m.data = grown
		return
	}
	m.data = m.data[:n]
}

func (m *Image) check(addr int64, size uint8) {
	if addr < 0 || addr+int64(size) > m.size {
		panic(fmt.Sprintf("mem: access [%d,+%d) out of range (size %d)", addr, size, m.size))
	}
}

// ReadInt reads size bytes (1, 2, 4 or 8) at addr, little-endian. Sub-word
// reads zero-extend.
func (m *Image) ReadInt(addr int64, size uint8) int64 {
	if addr < 0 || addr+int64(size) > int64(len(m.data)) {
		return m.readCold(addr, size)
	}
	switch size {
	case 1:
		return int64(m.data[addr])
	case 2:
		return int64(binary.LittleEndian.Uint16(m.data[addr:]))
	case 4:
		return int64(binary.LittleEndian.Uint32(m.data[addr:]))
	case 8:
		return int64(binary.LittleEndian.Uint64(m.data[addr:]))
	}
	panic(fmt.Sprintf("mem: bad read size %d", size))
}

// readCold serves a read that is not wholly inside the backed prefix: it
// panics outside the image, and bytes past the prefix read as zero. It
// never grows the backing, so readers sharing an image stay race-free.
//
//go:noinline
func (m *Image) readCold(addr int64, size uint8) int64 {
	m.check(addr, size)
	switch size {
	case 1, 2, 4, 8:
	default:
		panic(fmt.Sprintf("mem: bad read size %d", size))
	}
	var v int64
	for i := int64(0); i < int64(size) && addr+i < int64(len(m.data)); i++ {
		v |= int64(m.data[addr+i]) << (8 * i)
	}
	return v
}

// WriteInt writes the low size bytes of v at addr, little-endian.
func (m *Image) WriteInt(addr int64, size uint8, v int64) {
	if addr < 0 || addr+int64(size) > int64(len(m.data)) {
		m.writeCold(addr, size)
	}
	switch size {
	case 1:
		m.data[addr] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(m.data[addr:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(m.data[addr:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(m.data[addr:], uint64(v))
	default:
		panic(fmt.Sprintf("mem: bad write size %d", size))
	}
}

// writeCold prepares a write that is not wholly inside the backed prefix:
// it panics outside the image and otherwise materializes up to the write.
// Materializing is invisible (the new bytes read as zero either way), so
// WriteInt may still reject a bad size afterwards.
//
//go:noinline
func (m *Image) writeCold(addr int64, size uint8) {
	m.check(addr, size)
	m.materialize(addr + int64(size))
}

// Read64 reads the 8-byte word at addr.
func (m *Image) Read64(addr int64) int64 { return m.ReadInt(addr, 8) }

// Write64 writes the 8-byte word at addr.
func (m *Image) Write64(addr int64, v int64) { m.WriteInt(addr, 8, v) }

// word returns the raw 8-byte word at the word address a, zero past the
// backed prefix.
func (m *Image) word(a int64) uint64 {
	if a+WordSize <= int64(len(m.data)) {
		return binary.LittleEndian.Uint64(m.data[a:])
	}
	return 0
}

// Equal reports whether two images hold identical bytes over the same
// logical size. Differential harnesses use it to compare final
// architectural state across runs.
func (m *Image) Equal(o *Image) bool {
	if m.size != o.size {
		return false
	}
	short, long := m.data, o.data
	if len(short) > len(long) {
		short, long = long, short
	}
	if string(short) != string(long[:len(short)]) {
		return false
	}
	for _, b := range long[len(short):] {
		if b != 0 {
			return false
		}
	}
	return true
}

// DiffWord returns the word address of the first 8-byte word at which the
// images differ, or -1 when they are equal (or differ only in length).
func (m *Image) DiffWord(o *Image) int64 {
	end := min(m.size, o.size, int64(max(len(m.data), len(o.data))))
	for a := int64(0); a+WordSize <= end; a += WordSize {
		if m.word(a) != o.word(a) {
			return a
		}
	}
	return -1
}

// ReadBlockWords copies the 8 words of the block containing addr into dst.
func (m *Image) ReadBlockWords(addr int64, dst *[WordsPerBlock]int64) {
	base := BlockBase(addr)
	if base < 0 || base+BlockSize > int64(len(m.data)) {
		// The prefix is whole blocks, so this block is wholly past it.
		m.check(base, BlockSize)
		*dst = [WordsPerBlock]int64{}
		return
	}
	for i := 0; i < WordsPerBlock; i++ {
		dst[i] = int64(binary.LittleEndian.Uint64(m.data[base+int64(i*WordSize):]))
	}
}
