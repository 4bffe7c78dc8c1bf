package atomicio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
)

// The journal's record envelope, version 1. Each journal line is a frame
//
//	!j1 <length> <crc32c as 8 hex digits> <payload>\n
//
// The length is the payload byte count in decimal; the checksum is CRC32C
// (Castagnoli) over the payload. A line without the magic, or a mismatch
// in either field, means the line was corrupted after it was acknowledged
// — bit rot, a misdirected write — and decoding reports ErrFrameCorrupt
// instead of handing back bad bytes.
const frameMagic = "!j1 "

// ErrFrameCorrupt reports a journal line that lacks the frame magic or
// whose length or CRC32C does not match its payload. Scrubbers quarantine
// such records; replay treats them per the degradation policy rather than
// trusting the bytes.
var ErrFrameCorrupt = errors.New("journal frame corrupt (length or checksum mismatch)")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeFrame wraps payload in a version-1 frame, without the trailing
// newline (AppendLine adds it). The payload must not contain a newline;
// that is rejected with ErrLineBreak exactly as the appenders do.
func EncodeFrame(payload []byte) ([]byte, error) {
	if bytes.IndexByte(payload, '\n') >= 0 {
		return nil, fmt.Errorf("edaio: framing payload: %w", ErrLineBreak)
	}
	buf := make([]byte, 0, len(frameMagic)+20+9+len(payload))
	buf = append(buf, frameMagic...)
	buf = strconv.AppendInt(buf, int64(len(payload)), 10)
	buf = append(buf, ' ')
	buf = appendCRCHex(buf, crc32.Checksum(payload, crcTable))
	buf = append(buf, ' ')
	buf = append(buf, payload...)
	return buf, nil
}

// appendCRCHex appends sum as exactly 8 lowercase hex digits.
func appendCRCHex(buf []byte, sum uint32) []byte {
	const hex = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		buf = append(buf, hex[(sum>>uint(shift))&0xf])
	}
	return buf
}

// DecodeFrame extracts the payload of a framed line (no trailing
// newline). Any structural damage — a missing magic or field, a length
// that does not match the remaining bytes, a CRC mismatch — yields an
// error wrapping ErrFrameCorrupt; the returned payload is nil in that
// case, so corrupted bytes are never handed to a decoder.
func DecodeFrame(line []byte) ([]byte, error) {
	rest, ok := bytes.CutPrefix(line, []byte(frameMagic))
	if !ok {
		return nil, fmt.Errorf("edaio: no frame magic: %w", ErrFrameCorrupt)
	}
	sp := bytes.IndexByte(rest, ' ')
	if sp <= 0 {
		return nil, fmt.Errorf("edaio: frame missing length field: %w", ErrFrameCorrupt)
	}
	// The format is canonical: a decimal length with no sign or leading
	// zero, and exactly 8 lowercase hex checksum digits. Anything looser
	// would let two byte sequences decode to the same record, which a
	// scrubber comparing frames byte-for-byte must never see.
	lenField := rest[:sp]
	if len(lenField) > 1 && lenField[0] == '0' {
		return nil, fmt.Errorf("edaio: frame length %q not canonical: %w", lenField, ErrFrameCorrupt)
	}
	length, err := strconv.ParseUint(string(lenField), 10, 63)
	if err != nil {
		return nil, fmt.Errorf("edaio: frame length %q: %w", lenField, ErrFrameCorrupt)
	}
	rest = rest[sp+1:]
	if len(rest) < 9 || rest[8] != ' ' {
		return nil, fmt.Errorf("edaio: frame missing checksum field: %w", ErrFrameCorrupt)
	}
	var want uint32
	for _, c := range rest[:8] {
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		default:
			return nil, fmt.Errorf("edaio: frame checksum %q: %w", rest[:8], ErrFrameCorrupt)
		}
		want = want<<4 | d
	}
	payload := rest[9:]
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("edaio: frame length %d != payload %d bytes: %w", length, len(payload), ErrFrameCorrupt)
	}
	if got := crc32.Checksum(payload, crcTable); got != uint32(want) {
		return nil, fmt.Errorf("edaio: frame checksum %08x != computed %08x: %w", want, got, ErrFrameCorrupt)
	}
	return payload, nil
}

// Frame is one journal line as seen by FrameScanner.
type Frame struct {
	// Raw is the line exactly as stored, without its trailing newline.
	Raw []byte
	// Payload is the decoded frame payload. Nil when Err is set.
	Payload []byte
	// Torn reports that this was the final line and it had no trailing
	// newline — the unacknowledged tail a crash mid-append leaves, which
	// reopening heals.
	Torn bool
	// Err is non-nil for a line that failed verification (wraps
	// ErrFrameCorrupt). Scanning continues past it; the caller decides
	// whether to quarantine or abort.
	Err error
}

// FrameScanner reads a journal line by line, verifying each line's frame.
// Unlike bufio.Scanner it has no token size limit: a record is bounded
// only by memory, so an oversized submit spec cannot be silently dropped
// on replay.
type FrameScanner struct {
	r    *bufio.Reader
	off  int64 // file offset of the next unread line
	done bool
}

// NewFrameScanner wraps r. Journals are read sequentially from offset 0.
func NewFrameScanner(r io.Reader) *FrameScanner {
	return &FrameScanner{r: bufio.NewReaderSize(r, 64<<10)}
}

// Offset returns the file offset of the line the next Next call returns.
func (s *FrameScanner) Offset() int64 { return s.off }

// Next returns the next line as a Frame. At end of input it returns
// io.EOF; any other returned error is an I/O failure from the underlying
// reader. Per-line verification failures are reported in Frame.Err, not
// the error return, so one corrupt record does not hide the rest of the
// journal from a scrubber.
func (s *FrameScanner) Next() (Frame, error) {
	if s.done {
		return Frame{}, io.EOF
	}
	line, err := s.r.ReadBytes('\n')
	if err != nil && err != io.EOF {
		return Frame{}, fmt.Errorf("edaio: reading journal: %w", err)
	}
	torn := false
	if err == io.EOF {
		s.done = true
		if len(line) == 0 {
			return Frame{}, io.EOF
		}
		torn = true // final line without its newline: a torn tail
	}
	s.off += int64(len(line))
	line = bytes.TrimSuffix(line, []byte("\n"))
	f := Frame{Raw: line, Torn: torn}
	f.Payload, f.Err = DecodeFrame(line)
	return f, nil
}
