package atomicio

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := []string{
		"",
		"x",
		`{"seq":1,"kind":"submit","job":"a1"}`,
		strings.Repeat("z", 1<<16), // larger than any scanner default
		"!j1 looks like magic but is payload",
	}
	for _, p := range payloads {
		frame, err := EncodeFrame([]byte(p))
		if err != nil {
			t.Fatalf("EncodeFrame(%q...): %v", clip(p), err)
		}
		got, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("DecodeFrame(%q...): %v", clip(p), err)
		}
		if string(got) != p {
			t.Fatalf("round trip: got %q want %q", clip(string(got)), clip(p))
		}
	}
}

func clip(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}

func TestEncodeFrameRejectsNewline(t *testing.T) {
	if _, err := EncodeFrame([]byte("a\nb")); !errors.Is(err, ErrLineBreak) {
		t.Fatalf("EncodeFrame with newline: got %v, want ErrLineBreak", err)
	}
}

func TestDecodeFrameDetectsCorruption(t *testing.T) {
	frame, err := EncodeFrame([]byte(`{"job":"a1","state":"finished"}`))
	if err != nil {
		t.Fatal(err)
	}
	// Flip every single byte of the frame in turn: each mutation,
	// including one that destroys the magic, must be detected
	// (ErrFrameCorrupt) — never silently decoded to different bytes.
	for i := range frame {
		for _, flip := range []byte{0x01, 0x40} {
			mut := append([]byte(nil), frame...)
			mut[i] ^= flip
			got, err := DecodeFrame(mut)
			if err == nil {
				t.Fatalf("flip byte %d by %#x: decoded %q without error", i, flip, clip(string(got)))
			}
			if !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("flip byte %d by %#x: error %v does not wrap ErrFrameCorrupt", i, flip, err)
			}
			if got != nil {
				t.Fatalf("flip byte %d by %#x: corrupt decode returned payload %q", i, flip, clip(string(got)))
			}
		}
	}
}

func TestDecodeFrameTruncated(t *testing.T) {
	frame, err := EncodeFrame([]byte("hello world, a payload of some length"))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(frame); n++ {
		mut := frame[:n]
		if _, err := DecodeFrame(mut); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("truncated to %d bytes: got %v, want ErrFrameCorrupt", n, err)
		}
	}
}

func TestFrameScannerMixedFormats(t *testing.T) {
	framed, err := EncodeFrame([]byte(`{"seq":2}`))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), framed...)
	corrupt[len(corrupt)-1] ^= 0x20 // damage the payload, keep the magic
	var journal bytes.Buffer
	journal.WriteString(`{"seq":1,"legacy":true}` + "\n") // unframed line
	journal.Write(framed)
	journal.WriteByte('\n')
	journal.Write(corrupt)
	journal.WriteByte('\n')
	journal.WriteString("!j1 torn") // torn tail, no newline

	sc := NewFrameScanner(&journal)

	f1, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(f1.Err, ErrFrameCorrupt) || f1.Payload != nil || string(f1.Raw) != `{"seq":1,"legacy":true}` {
		t.Fatalf("unframed line: %+v", f1)
	}

	f2, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f2.Err != nil || string(f2.Payload) != `{"seq":2}` {
		t.Fatalf("framed line: %+v", f2)
	}

	f3, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(f3.Err, ErrFrameCorrupt) {
		t.Fatalf("corrupt line: Err=%v", f3.Err)
	}

	f4, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !f4.Torn {
		t.Fatalf("torn tail not flagged: %+v", f4)
	}

	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("after tail: got %v, want io.EOF", err)
	}
}

func TestFrameScannerOversizedRecord(t *testing.T) {
	// Far past bufio.Scanner's 64KiB default token limit — the latent
	// replay bug this scanner exists to rule out.
	big := bytes.Repeat([]byte("s"), 1<<20)
	frame, err := EncodeFrame(big)
	if err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	journal.Write(frame)
	journal.WriteByte('\n')
	sc := NewFrameScanner(&journal)
	f, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Err != nil || !bytes.Equal(f.Payload, big) {
		t.Fatalf("oversized record: Err=%v, payload %d bytes (want %d)", f.Err, len(f.Payload), len(big))
	}
}

func TestFrameScannerOffset(t *testing.T) {
	var journal bytes.Buffer
	journal.WriteString("one\n")
	journal.WriteString("two\n")
	sc := NewFrameScanner(&journal)
	if sc.Offset() != 0 {
		t.Fatalf("initial offset %d", sc.Offset())
	}
	if _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	if sc.Offset() != 4 {
		t.Fatalf("after one line: offset %d, want 4", sc.Offset())
	}
}

// FuzzReadFrame asserts the corruption contract: arbitrary bytes fed to
// the decode path never panic and never yield a payload that differs from
// what a well-formed encode produced.
func FuzzReadFrame(f *testing.F) {
	seed, _ := EncodeFrame([]byte(`{"seq":9,"kind":"submit"}`))
	f.Add(seed)
	f.Add([]byte("!j1 5 00000000 xxxxx"))
	f.Add([]byte("!j1 "))
	f.Add([]byte("!j1 18446744073709551616 00000000 x"))
	f.Add([]byte("!j1 -1 00000000 "))
	f.Add([]byte("plain unframed line"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, line []byte) {
		if bytes.IndexByte(line, '\n') >= 0 {
			return // journal lines never contain newlines by construction
		}
		payload, err := DecodeFrame(line)
		if err != nil {
			if !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrFrameCorrupt", err)
			}
			if payload != nil {
				t.Fatal("corrupt decode returned non-nil payload")
			}
			return
		}
		// A successful decode must re-encode to the identical line:
		// the format is canonical, so decode(line) succeeding means line
		// IS the encoding of its payload.
		again, eerr := EncodeFrame(payload)
		if eerr != nil {
			t.Fatalf("re-encode of decoded payload failed: %v", eerr)
		}
		if !bytes.Equal(again, line) {
			t.Fatalf("decode accepted non-canonical frame:\n line  %q\n canon %q", line, again)
		}
	})
}
