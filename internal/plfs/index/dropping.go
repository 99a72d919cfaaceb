package index

import (
	"encoding/binary"
	"fmt"

	"ldplfs/internal/posix"
)

// droppingHeader prefixes every index dropping: magic plus a format version.
const (
	headerSize = 16
	version    = 1
)

// DroppingHeaderSize is the on-disk length of an index dropping's header
// — what inspection tools subtract before dividing by EntrySize to count
// records without parsing.
const DroppingHeaderSize = headerSize

// Writer appends index records to an index dropping file through a posix
// backend. It buffers records and flushes on Sync/Close so that a long run
// of small writes costs one appended burst, as in PLFS's buffered index.
type Writer struct {
	fs  posix.FS
	fd  int
	buf []byte
}

// NewWriter creates (or truncates) the index dropping at path and writes
// its header.
func NewWriter(fs posix.FS, path string) (*Writer, error) {
	fd, err := fs.Open(path, posix.O_CREAT|posix.O_WRONLY|posix.O_TRUNC|posix.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("index: create dropping %s: %w", path, err)
	}
	if err := writeHeader(fs, fd); err != nil {
		fs.Close(fd)
		return nil, err
	}
	return &Writer{fs: fs, fd: fd}, nil
}

// writeHeader appends the magic/version header to an empty dropping.
func writeHeader(fs posix.FS, fd int) error {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], Magic)
	binary.LittleEndian.PutUint64(hdr[8:], version)
	if _, err := fs.Write(fd, hdr[:]); err != nil {
		return fmt.Errorf("index: write header: %w", err)
	}
	return nil
}

// Buffered returns the number of bytes of appended records not yet
// flushed to the dropping.
func (w *Writer) Buffered() int { return len(w.buf) }

// BufferedRecords returns the number of whole records not yet flushed —
// the unit the write engine's group-flush threshold counts in.
func (w *Writer) BufferedRecords() int { return len(w.buf) / EntrySize }

// Append buffers one entry.
func (w *Writer) Append(e Entry) {
	var rec [EntrySize]byte
	e.Marshal(rec[:])
	w.buf = append(w.buf, rec[:]...)
}

// Flush appends the buffered records to the dropping without forcing
// them to stable storage (the write engine's group flush; Sync adds the
// fsync). It returns the number of bytes that reached the dropping. On a
// short write the durable prefix is dropped from the buffer, so a retry
// continues exactly where the backend stopped instead of duplicating
// record bytes and tearing the dropping.
func (w *Writer) Flush() (int, error) {
	flushed := 0
	for len(w.buf) > 0 {
		n, err := w.fs.Write(w.fd, w.buf)
		if n > 0 {
			w.buf = w.buf[:copy(w.buf, w.buf[n:])]
			flushed += n
		}
		if err != nil {
			return flushed, fmt.Errorf("index: flush: %w", err)
		}
		if n <= 0 {
			return flushed, fmt.Errorf("index: flush: zero-length write")
		}
	}
	return flushed, nil
}

// Sync flushes buffered entries to the dropping and forces them down.
func (w *Writer) Sync() error {
	if _, err := w.Flush(); err != nil {
		return err
	}
	return w.fs.Fsync(w.fd)
}

// Close flushes and closes the dropping.
func (w *Writer) Close() error {
	if err := w.Sync(); err != nil {
		w.fs.Close(w.fd)
		return err
	}
	return w.fs.Close(w.fd)
}

// OpenWriter opens an existing index dropping for appending, after
// validating its header. New records land after the existing ones. A
// trailing partial record (a flush that died mid-record, or a crashed
// writer's torn tail) is truncated away first, so resumed appends stay
// record-aligned instead of corrupting everything written after them.
// A 0-byte dropping (its creator died between create and header write)
// holds no entries, as ReadDropping reads it; it gets its header now.
func OpenWriter(fs posix.FS, path string) (*Writer, error) {
	fd, err := fs.Open(path, posix.O_RDWR|posix.O_APPEND, 0)
	if err != nil {
		return nil, fmt.Errorf("index: reopen dropping %s: %w", path, err)
	}
	st, err := fs.Fstat(fd)
	if err != nil {
		fs.Close(fd)
		return nil, err
	}
	if st.Size == 0 {
		if err := writeHeader(fs, fd); err != nil {
			fs.Close(fd)
			return nil, fmt.Errorf("index: reopen dropping %s: %w", path, err)
		}
		return &Writer{fs: fs, fd: fd}, nil
	}
	var hdr [headerSize]byte
	if err := posix.ReadFull(fs, fd, hdr[:], 0); err != nil {
		fs.Close(fd)
		return nil, fmt.Errorf("index: reopen dropping %s: short header: %w", path, err)
	}
	if got := binary.LittleEndian.Uint64(hdr[0:]); got != Magic {
		fs.Close(fd)
		return nil, fmt.Errorf("index: reopen dropping %s: bad magic %#x", path, got)
	}
	if torn := (st.Size - headerSize) % EntrySize; torn != 0 {
		if err := fs.Ftruncate(fd, st.Size-torn); err != nil {
			fs.Close(fd)
			return nil, fmt.Errorf("index: reopen dropping %s: trim torn tail: %w", path, err)
		}
	}
	return &Writer{fs: fs, fd: fd}, nil
}

// ReadDropping loads every entry from the index dropping at path. A
// trailing partial record is ignored, not an error: the write engine
// group-flushes record batches, and a short flush (or a crash mid-
// append) legitimately leaves a record prefix on the backend that the
// writer completes on its next flush — readers racing that window must
// see the whole records, not fail the container. Durability is not
// weakened: a record is only promised once plfs_sync succeeded, and a
// torn record by definition never did. Corruption inside whole records
// is still caught by the per-record checksum.
//
// A 0-byte dropping holds no entries: NewWriter creates the file before
// it writes the header, so a peer instance's just-created dropping is
// legitimately empty for a moment. A tear inside the header (1 to
// headerSize-1 bytes) is still an error.
func ReadDropping(fs posix.FS, path string) ([]Entry, error) {
	fd, err := fs.Open(path, posix.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("index: open dropping %s: %w", path, err)
	}
	defer fs.Close(fd)

	st, err := fs.Fstat(fd)
	if err != nil {
		return nil, err
	}
	if st.Size == 0 {
		return nil, nil
	}
	if st.Size < headerSize {
		return nil, fmt.Errorf("index: dropping %s too short (%d bytes)", path, st.Size)
	}
	data := make([]byte, st.Size)
	if err := posix.ReadFull(fs, fd, data, 0); err != nil {
		return nil, fmt.Errorf("index: read dropping %s: %w", path, err)
	}
	if got := binary.LittleEndian.Uint64(data[0:]); got != Magic {
		return nil, fmt.Errorf("index: dropping %s: bad magic %#x", path, got)
	}
	if got := binary.LittleEndian.Uint64(data[8:]); got != version {
		return nil, fmt.Errorf("index: dropping %s: unsupported version %d", path, got)
	}
	body := data[headerSize:]
	body = body[:len(body)-len(body)%EntrySize] // drop an in-flight partial tail
	entries := make([]Entry, 0, len(body)/EntrySize)
	for off := 0; off < len(body); off += EntrySize {
		var e Entry
		if err := e.Unmarshal(body[off : off+EntrySize]); err != nil {
			return nil, fmt.Errorf("index: dropping %s record %d: %w", path, off/EntrySize, err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// WriteDropping writes a complete dropping with the given entries,
// replacing any existing file. Used when a truncate consolidates a
// container's index.
func WriteDropping(fs posix.FS, path string, entries []Entry) error {
	w, err := NewWriter(fs, path)
	if err != nil {
		return err
	}
	for _, e := range entries {
		w.Append(e)
	}
	return w.Close()
}
