package telemetry

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Two wire formats, one record schema. JSONL is the readable default:
// one object per event, fixed key order, so streams are diffable with
// text tools and byte-identical whenever the event sequence is. The
// binary format is a fixed 72-byte little-endian record behind an
// 8-byte magic, for traces too large to keep as text. ReadEvents
// sniffs the magic and accepts either.

// JSONLSink writes one JSON object per event with a fixed key order.
type JSONLSink struct {
	w   io.Writer
	buf []byte
}

// NewJSONLSink returns a sink writing JSONL to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

func (s *JSONLSink) WriteEvents(evs []Event) error {
	s.buf = s.buf[:0]
	for i := range evs {
		s.buf = appendEventJSON(s.buf, &evs[i])
	}
	_, err := s.w.Write(s.buf)
	return err
}

func appendEventJSON(b []byte, e *Event) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, e.Cycle, 10)
	b = append(b, `,"core":`...)
	b = strconv.AppendInt(b, int64(e.Core), 10)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","cause":"`...)
	b = append(b, e.Cause.String()...)
	b = append(b, `","tx":`...)
	b = strconv.AppendInt(b, e.Tx, 10)
	b = append(b, `,"block":`...)
	b = strconv.AppendInt(b, e.Block, 10)
	b = append(b, `,"a":`...)
	b = strconv.AppendInt(b, e.A, 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, e.B, 10)
	b = append(b, `,"c":`...)
	b = strconv.AppendInt(b, e.C, 10)
	b = append(b, `,"d":`...)
	b = strconv.AppendInt(b, e.D, 10)
	b = append(b, `,"e":`...)
	b = strconv.AppendInt(b, e.E, 10)
	b = append(b, "}\n"...)
	return b
}

// jsonEvent mirrors the JSONL schema for decoding.
type jsonEvent struct {
	T     int64  `json:"t"`
	Core  int32  `json:"core"`
	Kind  string `json:"kind"`
	Cause string `json:"cause"`
	Tx    int64  `json:"tx"`
	Block int64  `json:"block"`
	A     int64  `json:"a"`
	B     int64  `json:"b"`
	C     int64  `json:"c"`
	D     int64  `json:"d"`
	E     int64  `json:"e"`
}

// binaryMagic opens every binary trace. The trailing newline keeps a
// `head -c8` sniff printable and unambiguous against JSONL (which
// always starts with '{').
var binaryMagic = [8]byte{'R', 'E', 'T', 'T', 'R', 'C', '1', '\n'}

const binaryRecordSize = 72 // 8 x int64 payload + int32 core + kind + cause + 2 pad

// BinarySink writes the compact binary format. The magic header is
// emitted before the first record, so an empty trace is an empty file
// in both formats.
type BinarySink struct {
	w      io.Writer
	buf    []byte
	opened bool
}

// NewBinarySink returns a sink writing the binary format to w.
func NewBinarySink(w io.Writer) *BinarySink { return &BinarySink{w: w} }

// WriteEvents sizes the batch buffer once and encodes every record in
// place.
func (s *BinarySink) WriteEvents(evs []Event) error {
	n := len(evs) * binaryRecordSize
	if !s.opened {
		n += len(binaryMagic)
	}
	s.buf = slices.Grow(s.buf[:0], n)[:n]
	b := s.buf
	if !s.opened {
		b = b[copy(b, binaryMagic[:]):]
		s.opened = true
	}
	for i := range evs {
		putEventBinary(b[i*binaryRecordSize:], &evs[i])
	}
	_, err := s.w.Write(s.buf)
	return err
}

// putEventBinary encodes e into the first binaryRecordSize bytes of b.
func putEventBinary(b []byte, e *Event) {
	b = b[:binaryRecordSize]
	binary.LittleEndian.PutUint64(b[0:], uint64(e.Cycle))
	binary.LittleEndian.PutUint64(b[8:], uint64(e.Tx))
	binary.LittleEndian.PutUint64(b[16:], uint64(e.Block))
	binary.LittleEndian.PutUint64(b[24:], uint64(e.A))
	binary.LittleEndian.PutUint64(b[32:], uint64(e.B))
	binary.LittleEndian.PutUint64(b[40:], uint64(e.C))
	binary.LittleEndian.PutUint64(b[48:], uint64(e.D))
	binary.LittleEndian.PutUint64(b[56:], uint64(e.E))
	binary.LittleEndian.PutUint32(b[64:], uint32(e.Core))
	b[68], b[69], b[70], b[71] = byte(e.Kind), byte(e.Cause), 0, 0
}

// decodeEventBinary decodes one record into e, rejecting what the
// JSONL reader would also reject: a kind or cause with no name, and
// non-zero padding. n is the record's index, for the error.
func decodeEventBinary(e *Event, rec []byte, n int) error {
	rec = rec[:binaryRecordSize]
	switch {
	case Kind(rec[68]) >= NumKinds:
		return fmt.Errorf("telemetry: invalid binary record %d: kind %d", n, rec[68])
	case Cause(rec[69]) >= NumCauses:
		return fmt.Errorf("telemetry: invalid binary record %d: cause %d", n, rec[69])
	case rec[70] != 0 || rec[71] != 0:
		return fmt.Errorf("telemetry: invalid binary record %d: padding %#x", n, binary.LittleEndian.Uint16(rec[70:]))
	}
	e.Cycle = int64(binary.LittleEndian.Uint64(rec[0:]))
	e.Tx = int64(binary.LittleEndian.Uint64(rec[8:]))
	e.Block = int64(binary.LittleEndian.Uint64(rec[16:]))
	e.A = int64(binary.LittleEndian.Uint64(rec[24:]))
	e.B = int64(binary.LittleEndian.Uint64(rec[32:]))
	e.C = int64(binary.LittleEndian.Uint64(rec[40:]))
	e.D = int64(binary.LittleEndian.Uint64(rec[48:]))
	e.E = int64(binary.LittleEndian.Uint64(rec[56:]))
	e.Core = int32(binary.LittleEndian.Uint32(rec[64:]))
	e.Kind = Kind(rec[68])
	e.Cause = Cause(rec[69])
	return nil
}

// ReadEvents decodes a complete trace in either wire format, sniffing
// the binary magic. A short trailing record or line (a run killed
// mid-write) is an error; traces flushed through Recorder.Flush are
// always record-aligned. When r reveals its size cheaply (an in-memory
// reader, or a regular file) a binary trace is decoded into a slice
// allocated once at its exact length.
func ReadEvents(r io.Reader) ([]Event, error) {
	size := sizeHint(r)
	br := bufio.NewReader(r)
	head, err := br.Peek(len(binaryMagic))
	switch {
	case err == io.EOF && len(head) == 0:
		return nil, nil // empty trace
	case err != nil && err != io.EOF:
		return nil, err
	case err == nil && bytes.Equal(head, binaryMagic[:]):
		return readBinary(br, size)
	}
	return readJSONL(br)
}

// sizeHint returns the bytes left in r where that costs no read, or -1.
// A file is taken to be read from its start; past that the hint only
// over-sizes the slice.
func sizeHint(r io.Reader) int64 {
	switch r := r.(type) {
	case *bytes.Reader:
		return int64(r.Len())
	case *bytes.Buffer:
		return int64(r.Len())
	case *strings.Reader:
		return int64(r.Len())
	case *os.File:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return -1
}

// readBinary decodes the records behind the magic. bufio.Reader.WriteTo
// hands the decoder the source's bytes in whatever chunks the source
// yields (a bytes.Reader yields its whole remainder at once), so
// records are decoded where they lie and only a record split across
// two chunks is copied.
func readBinary(br *bufio.Reader, size int64) ([]Event, error) {
	if _, err := br.Discard(len(binaryMagic)); err != nil {
		return nil, err
	}
	d := binaryDecoder{}
	if n := (size - int64(len(binaryMagic))) / binaryRecordSize; n > 0 {
		d.evs = make([]Event, 0, n)
	}
	if _, err := br.WriteTo(&d); err != nil {
		return nil, err
	}
	if d.held > 0 {
		return nil, fmt.Errorf("telemetry: truncated binary record after %d events: %w", len(d.evs), io.ErrUnexpectedEOF)
	}
	return d.evs, nil
}

// binaryDecoder is the io.Writer readBinary drains the source into. It
// holds back the head of a record a chunk boundary cuts.
type binaryDecoder struct {
	evs  []Event
	part [binaryRecordSize]byte
	held int // bytes of part in use
}

func (d *binaryDecoder) Write(p []byte) (int, error) {
	n := len(p)
	if d.held > 0 {
		c := copy(d.part[d.held:], p)
		d.held += c
		p = p[c:]
		if d.held < binaryRecordSize {
			return n, nil
		}
		d.held = 0
		if err := d.decode(d.part[:]); err != nil {
			return n - len(p), err
		}
	}
	for len(p) >= binaryRecordSize {
		if err := d.decode(p); err != nil {
			return n - len(p), err
		}
		p = p[binaryRecordSize:]
	}
	d.held = copy(d.part[:], p)
	return n, nil
}

func (d *binaryDecoder) decode(rec []byte) error {
	d.evs = append(d.evs, Event{})
	n := len(d.evs) - 1
	return decodeEventBinary(&d.evs[n], rec, n)
}

func readJSONL(br *bufio.Reader) ([]Event, error) {
	var evs []Event
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(line, &je); err != nil {
			return nil, fmt.Errorf("telemetry: bad trace line after %d events: %w", len(evs), err)
		}
		kind, ok := KindFromString(je.Kind)
		if !ok {
			return nil, fmt.Errorf("telemetry: unknown event kind %q after %d events", je.Kind, len(evs))
		}
		cause, ok := CauseFromString(je.Cause)
		if !ok {
			return nil, fmt.Errorf("telemetry: unknown abort cause %q after %d events", je.Cause, len(evs))
		}
		evs = append(evs, Event{
			Cycle: je.T, Core: je.Core, Kind: kind, Cause: cause,
			Tx: je.Tx, Block: je.Block, A: je.A, B: je.B, C: je.C, D: je.D, E: je.E,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return evs, nil
}
