package atomicio

import (
	"bytes"
	"errors"
)

// ErrLineBreak reports an AppendLine input containing a newline — the one
// malformed input the appender rejects outright, since writing it would
// silently split one record into two. GroupAppender wraps it, so journal
// writers classify the rejection with errors.Is.
var ErrLineBreak = errors.New("journal line contains a newline")

// healTornTail truncates an unterminated final line and returns the end
// offset of the newline-terminated prefix.
func healTornTail(f File) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := st.Size()
	if size == 0 {
		return 0, nil
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, size-1); err != nil {
		return 0, err
	}
	if last[0] == '\n' {
		return size, nil
	}
	// Scan backwards in chunks for the last newline.
	const chunk = 4096
	end := size
	for end > 0 {
		n := int64(chunk)
		if n > end {
			n = end
		}
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, end-n); err != nil {
			return 0, err
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			good := end - n + int64(i) + 1
			if err := f.Truncate(good); err != nil {
				return 0, err
			}
			return good, nil
		}
		end -= n
	}
	// No newline anywhere: the whole file is one torn line.
	if err := f.Truncate(0); err != nil {
		return 0, err
	}
	return 0, nil
}
