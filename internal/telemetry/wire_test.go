package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// goldenTrace is the committed trace the repository's determinism test
// pins: a real recorded run, used here as fuzz seed and benchmark input.
const goldenTrace = "../../testdata/trace_counter_retcon_c4_s1.jsonl"

// streamEvents returns n events cycling through every kind and cause,
// with payloads that fill all eight bytes of each field.
func streamEvents(n int) []Event {
	evs := make([]Event, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range evs {
		next := func() int64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int64(x)
		}
		evs[i] = Event{
			Cycle: int64(i) * 3, Core: int32(next()), Kind: Kind(i % int(NumKinds)), Cause: Cause(i % int(NumCauses)),
			Tx: next(), Block: next(), A: next(), B: next(), C: next(), D: next(), E: next(),
		}
	}
	return evs
}

func encode(t testing.TB, sink func(io.Writer) Sink, evs []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sink(&buf).WriteEvents(evs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeBinary(t testing.TB, evs []Event) []byte {
	return encode(t, func(w io.Writer) Sink { return NewBinarySink(w) }, evs)
}

func encodeJSONL(t testing.TB, evs []Event) []byte {
	return encode(t, func(w io.Writer) Sink { return NewJSONLSink(w) }, evs)
}

// plainReader hides every method of the wrapped reader but Read.
type plainReader struct{ r io.Reader }

func (p plainReader) Read(b []byte) (int, error) { return p.r.Read(b) }

// chunkings are the ways a source may hand ReadEvents its bytes.
var chunkings = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"bytes.Reader", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"plain", func(b []byte) io.Reader { return plainReader{bytes.NewReader(b)} }},
	{"OneByteReader", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"HalfReader", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
	{"DataErrReader", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
}

// TestReadEventsChunking decodes one stream, in both formats, through
// sources that yield it whole, in arbitrary chunks, a byte at a time
// and with io.EOF on the last data read.
func TestReadEventsChunking(t *testing.T) {
	evs := streamEvents(1000) // 72 KB binary: many bufio refills
	for _, format := range []struct {
		name string
		data []byte
	}{{"binary", encodeBinary(t, evs)}, {"jsonl", encodeJSONL(t, evs)}} {
		for _, c := range chunkings {
			t.Run(format.name+"/"+c.name, func(t *testing.T) {
				got, err := ReadEvents(c.wrap(format.data))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, evs) {
					t.Fatalf("decoded %d events, want the %d encoded", len(got), len(evs))
				}
			})
		}
	}
}

// TestReadEventsFile decodes a binary trace from a regular file, the
// one source sized through Stat.
func TestReadEventsFile(t *testing.T) {
	evs := streamEvents(300)
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := os.WriteFile(path, encodeBinary(t, evs), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, evs) || cap(got) != len(evs) {
		t.Fatalf("decoded %d events (cap %d), want the %d encoded at exact size", len(got), cap(got), len(evs))
	}
}

// TestReadEventsTornTail cuts the last record at every byte offset:
// each cut must report the events before it, through every chunking.
// Cutting the whole record leaves a valid, shorter trace.
func TestReadEventsTornTail(t *testing.T) {
	const n = 100
	evs := streamEvents(n)
	data := encodeBinary(t, evs)
	want := fmt.Sprintf("truncated binary record after %d events", n-1)
	for _, c := range chunkings {
		for cut := 1; cut < binaryRecordSize; cut++ {
			got, err := ReadEvents(c.wrap(data[:len(data)-cut]))
			if err == nil || !strings.Contains(err.Error(), want) || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s, cut %d: got %d events, err %v; want %q", c.name, cut, len(got), err, want)
			}
		}
		got, err := ReadEvents(c.wrap(data[:len(data)-binaryRecordSize]))
		if err != nil || !slices.Equal(got, evs[:n-1]) {
			t.Fatalf("%s, whole record cut: got %d events, err %v", c.name, len(got), err)
		}
	}
}

// TestReadEventsSourceError: a read error from the source comes back
// as that error, wherever in the stream it strikes, never as success or
// as a torn record.
func TestReadEventsSourceError(t *testing.T) {
	errRead := errors.New("disk on fire")
	data := encodeBinary(t, streamEvents(100))
	for _, at := range []int{0, 3, 8, 8 + 36, 8 + binaryRecordSize, 4096 + 5, len(data) - 1, len(data)} {
		for _, plain := range []bool{false, true} {
			var src io.Reader = io.MultiReader(bytes.NewReader(data[:at]), iotest.ErrReader(errRead))
			if plain {
				src = plainReader{src}
			}
			got, err := ReadEvents(src)
			if !errors.Is(err, errRead) || strings.Contains(err.Error(), "truncated") || got != nil {
				t.Fatalf("error after %d bytes (plain %v): got %d events, err %v", at, plain, len(got), err)
			}
		}
	}
}

// TestReadEventsRejectsInvalidRecords: the binary reader refuses what
// the JSONL reader refuses, an unnamed kind or cause, and also
// non-zero padding, naming the record.
func TestReadEventsRejectsInvalidRecords(t *testing.T) {
	const bad = 3
	for _, tc := range []struct {
		name string
		off  int
		val  byte
		want string
		ev   func(*Event) // the same defect in event form, where JSONL can carry it
	}{
		{"kind", 68, 200, "record 3: kind 200", func(e *Event) { e.Kind = 200 }},
		{"cause", 69, byte(NumCauses), fmt.Sprintf("record 3: cause %d", NumCauses), func(e *Event) { e.Cause = NumCauses }},
		{"pad70", 70, 1, "record 3: padding 0x1", nil},
		{"pad71", 71, 1, "record 3: padding 0x100", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evs := sampleEvents()
			data := encodeBinary(t, evs)
			data[len(binaryMagic)+bad*binaryRecordSize+tc.off] = tc.val
			for _, c := range chunkings {
				got, err := ReadEvents(c.wrap(data))
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s: got %d events, err %v; want %q", c.name, len(got), err, tc.want)
				}
			}
			if tc.ev != nil {
				tc.ev(&evs[bad])
				if _, err := ReadEvents(bytes.NewReader(encodeJSONL(t, evs))); err == nil {
					t.Fatal("JSONL accepted the event the binary reader rejects")
				}
			}
		})
	}
}

// maxDecodeAllocs bounds ReadEvents' allocations on a sized binary
// source, whatever its length: the bufio.Reader and its buffer, the
// decoder, and the one event slice.
const maxDecodeAllocs = 5

// TestReadEventsExactSize fails if binary decoding goes back to
// growing its slice by appending.
func TestReadEventsExactSize(t *testing.T) {
	for _, n := range []int{100, 100_000} {
		data := encodeBinary(t, streamEvents(n))
		r := bytes.NewReader(data)
		evs, err := ReadEvents(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) != n || cap(evs) != n {
			t.Fatalf("n=%d: len %d cap %d, want both %d", n, len(evs), cap(evs), n)
		}
		allocs := testing.AllocsPerRun(5, func() {
			r.Reset(data)
			if _, err := ReadEvents(r); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxDecodeAllocs {
			t.Fatalf("n=%d: %.0f allocs per decode, want <= %d", n, allocs, maxDecodeAllocs)
		}
	}
}

// TestBinarySinkBatches: a stream written in batches equals the same
// stream written at once, and a steady-state batch allocates nothing.
func TestBinarySinkBatches(t *testing.T) {
	evs := streamEvents(50)
	whole := encodeBinary(t, evs)
	var buf bytes.Buffer
	s := NewBinarySink(&buf)
	for i := 0; i < len(evs); i += 7 {
		if err := s.WriteEvents(evs[i:min(i+7, len(evs))]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), whole) {
		t.Fatal("batched binary encoding differs from the one-batch encoding")
	}
	discard := NewBinarySink(io.Discard)
	if allocs := testing.AllocsPerRun(100, func() { discard.WriteEvents(evs[:7]) }); allocs != 0 {
		t.Fatalf("steady-state WriteEvents made %.0f allocs", allocs)
	}
}

// FuzzReadEvents: ReadEvents never panics, and reads the same input
// the same way whole or a byte at a time. Whatever it accepts
// re-encodes in either format and decodes to the same events; an
// accepted binary input re-encodes to its own bytes.
func FuzzReadEvents(f *testing.F) {
	golden, err := os.ReadFile(goldenTrace)
	if err != nil {
		f.Fatal(err)
	}
	evs, err := ReadEvents(bytes.NewReader(golden))
	if err != nil {
		f.Fatal(err)
	}
	// Seed with the golden's head, not all of it: the engine minimizes
	// every new input for up to a minute, so kilobyte seeds stall a
	// short run.
	evs = evs[:8]
	jsonl, bin := encodeJSONL(f, evs), encodeBinary(f, evs)
	for _, seed := range [][]byte{
		jsonl, bin,
		jsonl[:len(jsonl)-7], bin[:len(bin)-7],
		binaryMagic[:], {}, []byte("\x00\xffgarbage{\"t\":"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadEvents(bytes.NewReader(data))
		bytewise, err1 := ReadEvents(iotest.OneByteReader(bytes.NewReader(data)))
		if fmt.Sprint(err) != fmt.Sprint(err1) || !slices.Equal(evs, bytewise) {
			t.Fatalf("whole read gave %d events, err %v; bytewise read gave %d, err %v", len(evs), err, len(bytewise), err1)
		}
		if err != nil {
			return
		}
		bin := encodeBinary(t, evs)
		if bytes.HasPrefix(data, binaryMagic[:]) && !bytes.Equal(bin, data) {
			t.Fatal("accepted binary input does not re-encode to its own bytes")
		}
		for _, enc := range [][]byte{bin, encodeJSONL(t, evs)} {
			got, err := ReadEvents(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("re-encoded trace rejected: %v", err)
			}
			if !slices.Equal(got, evs) {
				t.Fatalf("re-encoded trace decodes to %d different events, want %d", len(got), len(evs))
			}
		}
	})
}

func BenchmarkReadEvents(b *testing.B) {
	golden, err := os.ReadFile(goldenTrace)
	if err != nil {
		b.Fatal(err)
	}
	evs, err := ReadEvents(bytes.NewReader(golden))
	if err != nil {
		b.Fatal(err)
	}
	for _, format := range []struct {
		name string
		data []byte
	}{{"binary", encodeBinary(b, evs)}, {"jsonl", golden}} {
		b.Run(format.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(format.data)))
			r := bytes.NewReader(format.data)
			for b.Loop() {
				r.Reset(format.data)
				if _, err := ReadEvents(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBinarySink(b *testing.B) {
	evs := streamEvents(DefaultBufEvents) // one full recorder ring
	s := NewBinarySink(io.Discard)
	b.ReportAllocs()
	b.SetBytes(int64(len(evs) * binaryRecordSize))
	for b.Loop() {
		if err := s.WriteEvents(evs); err != nil {
			b.Fatal(err)
		}
	}
}
