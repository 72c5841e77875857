// Package store is the embedded, append-only, crash-safe results store:
// the durable source of truth for every bench, fuzz and chaos run (run
// metadata, per-cell latencies, invariant/oracle verdicts), replacing
// the hand-merged results/BENCH_sweep.json snapshot.
//
// A store is a directory of page-aligned segment files. Each segment
// starts with a one-page header (magic, format version, page size) and
// then holds a sequence of CRC-framed records in append order. Opening
// a store replays every segment with checksums verified and rebuilds an
// in-memory index (run records, per-segment sequence ranges and run-id
// sets) that scans use for predicate pushdown; a torn or truncated tail
// in the last segment — the crash case — is detected by the framing and
// discarded, so every complete record survives a crash. A segment whose
// format version is newer than this code refuses to open with a clear
// error instead of a garbage replay.
//
// Writers are single-process: the harness appends from one CLI run at a
// time (scripts serialize bench/fuzz through one store). Readers can
// open the same directory concurrently; scans never read past the
// replay-validated tail.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

const (
	// FormatVersion is the on-disk segment format this code writes and
	// the newest it understands.
	FormatVersion = 1
	// PageSize aligns segment headers and segment roll boundaries.
	PageSize = 4096
	// recAlign keeps every record frame 8-byte aligned.
	recAlign = 8
	// DefaultMaxSegment is the segment roll threshold (whole pages).
	DefaultMaxSegment = 256 * PageSize

	recMagic = 0xCA3C5EED // little-endian frame marker
)

var segMagic = [8]byte{'C', 'A', 'M', 'C', 'S', 'T', 'O', 'R'}

// frameHeader is magic + payload length + payload CRC.
const frameHeader = 12

// segInfo is the in-memory index entry for one segment file: its
// replay-validated extent and the key ranges scans prune on.
type segInfo struct {
	path   string
	index  int   // 1-based segment number from the file name
	size   int64 // validated byte extent (replayed, checksummed)
	minSeq uint64
	maxSeq uint64
	runIDs map[string]bool
	nrec   int
}

// Store is an open results store. Methods are not safe for concurrent
// use by multiple goroutines.
type Store struct {
	dir     string
	segs    []*segInfo
	active  *os.File // last segment, positioned at the validated tail
	nextSeq uint64
	maxSeg  int64
	runs    []Record // TypeRun records in append order (the run index)
	nrec    int
}

// Options tunes Open.
type Options struct {
	// ReadOnly refuses appends and never creates the directory.
	ReadOnly bool
	// MaxSegment overrides the segment roll threshold (0 = default).
	// Rounded up to a whole number of pages.
	MaxSegment int64
}

// Open opens (creating if needed, unless read-only) the store directory
// at dir, replaying every segment with checksums verified and
// truncating a torn tail in the last segment.
func Open(dir string, opts Options) (*Store, error) {
	if opts.ReadOnly {
		if fi, err := os.Stat(dir); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		} else if !fi.IsDir() {
			return nil, fmt.Errorf("store: %s is not a directory", dir)
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	maxSeg := opts.MaxSegment
	if maxSeg <= 0 {
		maxSeg = DefaultMaxSegment
	}
	if rem := maxSeg % PageSize; rem != 0 {
		maxSeg += PageSize - rem
	}
	s := &Store{dir: dir, nextSeq: 1, maxSeg: maxSeg}

	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(names)
	for i, name := range names {
		// A torn tail is tolerated in the final segment whoever opens it;
		// read-only opens just leave the residue on disk (scans stop at
		// the validated extent) while writable opens truncate it below.
		last := i == len(names)-1
		seg, runs, err := s.replaySegment(name, last)
		if err != nil {
			return nil, err
		}
		s.segs = append(s.segs, seg)
		s.runs = append(s.runs, runs...)
		s.nrec += seg.nrec
		if seg.maxSeq >= s.nextSeq {
			s.nextSeq = seg.maxSeq + 1
		}
	}
	if !opts.ReadOnly && len(s.segs) > 0 {
		seg := s.segs[len(s.segs)-1]
		f, err := os.OpenFile(seg.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		// Drop any torn tail on disk so the next append starts at the
		// validated extent.
		if err := f.Truncate(seg.size); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncating torn tail of %s: %w", seg.path, err)
		}
		if _, err := f.Seek(seg.size, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
		s.active = f
	}
	return s, nil
}

// replaySegment validates one segment file: header magic and version,
// then every record frame and payload checksum. A bad frame is a hard
// error except at the tail of the last segment (allowTorn), where it is
// the expected crash residue and the segment's validated extent stops
// at the last good record.
func (s *Store) replaySegment(path string, allowTorn bool) (*segInfo, []Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()

	var hdr [PageSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("store: %s: short segment header: %w", path, err)
	}
	if [8]byte(hdr[:8]) != segMagic {
		return nil, nil, fmt.Errorf("store: %s is not a camc store segment (bad magic)", path)
	}
	version := binary.LittleEndian.Uint32(hdr[8:12])
	if version > FormatVersion {
		return nil, nil, fmt.Errorf("store: %s has format version %d, newer than the %d this build understands — upgrade camc before reading this store", path, version, FormatVersion)
	}
	if ps := binary.LittleEndian.Uint32(hdr[12:16]); ps != PageSize {
		return nil, nil, fmt.Errorf("store: %s declares page size %d, want %d", path, ps, PageSize)
	}
	seg := &segInfo{
		path:   path,
		index:  int(binary.LittleEndian.Uint32(hdr[16:20])),
		size:   PageSize,
		runIDs: map[string]bool{},
	}

	br := bufio.NewReader(f)
	var runs []Record
	off := int64(PageSize)
	for {
		rec, next, err := readFrame(br, off)
		if err == io.EOF {
			break
		}
		if err != nil {
			if allowTorn {
				break // crash residue: keep the intact prefix
			}
			return nil, nil, fmt.Errorf("store: %s: %w (mid-log corruption; only the final segment may have a torn tail)", path, err)
		}
		if rec.Seq == 0 {
			return nil, nil, fmt.Errorf("store: %s: record at offset %d has sequence 0", path, off)
		}
		off = next
		seg.size = off
		seg.nrec++
		if seg.minSeq == 0 {
			seg.minSeq = rec.Seq
		}
		seg.maxSeq = rec.Seq
		if rec.RunID != "" {
			seg.runIDs[rec.RunID] = true
		}
		if rec.Type == TypeRun {
			runs = append(runs, rec)
		}
	}
	return seg, runs, nil
}

// readFrame decodes one record frame starting at offset off, returning
// the record and the aligned offset of the next frame. Any framing or
// checksum defect returns a non-EOF error; a clean end of file (or zero
// page padding through to EOF) returns io.EOF.
func readFrame(br *bufio.Reader, off int64) (Record, int64, error) {
	var h [frameHeader]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		if err == io.EOF {
			return Record{}, 0, io.EOF
		}
		return Record{}, 0, fmt.Errorf("torn frame header at offset %d", off)
	}
	magic := binary.LittleEndian.Uint32(h[0:4])
	if magic == 0 {
		// Zero padding: valid only if zeros run to EOF.
		if rest, err := io.ReadAll(br); err == nil && allZero(h[4:]) && allZero(rest) {
			return Record{}, 0, io.EOF
		}
		return Record{}, 0, fmt.Errorf("zero frame marker at offset %d inside live data", off)
	}
	if magic != recMagic {
		return Record{}, 0, fmt.Errorf("bad frame marker %#x at offset %d", magic, off)
	}
	n := binary.LittleEndian.Uint32(h[4:8])
	if n == 0 || n > 1<<24 {
		return Record{}, 0, fmt.Errorf("implausible record length %d at offset %d", n, off)
	}
	payload := make([]byte, int(n))
	if _, err := io.ReadFull(br, payload); err != nil {
		return Record{}, 0, fmt.Errorf("torn record payload at offset %d", off)
	}
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(h[8:12]) {
		return Record{}, 0, fmt.Errorf("checksum mismatch at offset %d", off)
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return Record{}, 0, fmt.Errorf("undecodable record at offset %d: %w", off, err)
	}
	next := off + frameHeader + int64(n)
	if pad := padTo(next, recAlign); pad > 0 {
		if _, err := io.CopyN(io.Discard, br, pad); err != nil {
			return Record{}, 0, fmt.Errorf("torn frame padding at offset %d", next)
		}
		next += pad
	}
	return rec, next, nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

func padTo(off int64, align int64) int64 {
	if rem := off % align; rem != 0 {
		return align - rem
	}
	return 0
}

// Append assigns the next sequence number, frames and writes the record
// to the active segment (rolling to a fresh page-aligned segment past
// the size threshold), and updates the in-memory index. The write is
// buffered by the OS; call Sync (or Close) for durability points.
func (s *Store) Append(r Record) (uint64, error) {
	if s.active == nil {
		if err := s.roll(); err != nil {
			return 0, err
		}
	}
	seg := s.segs[len(s.segs)-1]
	if seg.size >= s.maxSeg {
		if err := s.roll(); err != nil {
			return 0, err
		}
		seg = s.segs[len(s.segs)-1]
	}
	r.Seq = s.nextSeq
	payload, err := encodeRecord(r)
	if err != nil {
		return 0, err
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], recMagic)
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	if pad := padTo(seg.size+int64(len(frame)), recAlign); pad > 0 {
		frame = append(frame, make([]byte, pad)...)
	}
	if _, err := s.active.Write(frame); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	seg.size += int64(len(frame))
	seg.nrec++
	if seg.minSeq == 0 {
		seg.minSeq = r.Seq
	}
	seg.maxSeq = r.Seq
	if r.RunID != "" {
		seg.runIDs[r.RunID] = true
	}
	if r.Type == TypeRun {
		s.runs = append(s.runs, r)
	}
	s.nrec++
	s.nextSeq++
	return r.Seq, nil
}

// roll closes the active segment and starts the next one with a fresh
// page-aligned header.
func (s *Store) roll() error {
	if s.active != nil {
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := s.active.Close(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.active = nil
	}
	index := 1
	if n := len(s.segs); n > 0 {
		index = s.segs[n-1].index + 1
	}
	path := filepath.Join(s.dir, fmt.Sprintf("%08d.seg", index))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var hdr [PageSize]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], FormatVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], PageSize)
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(index))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.active = f
	s.segs = append(s.segs, &segInfo{path: path, index: index, size: PageSize, runIDs: map[string]bool{}})
	return nil
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	if s.active == nil {
		return nil
	}
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Close syncs and closes the store.
func (s *Store) Close() error {
	if s.active == nil {
		return nil
	}
	err := s.active.Sync()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	s.active = nil
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Len is the number of live records (all types).
func (s *Store) Len() int { return s.nrec }

// Runs returns the TypeRun records in append order.
func (s *Store) Runs() []Record {
	out := make([]Record, len(s.runs))
	copy(out, s.runs)
	return out
}

// RunByID returns the run record with the given id.
func (s *Store) RunByID(id string) (Record, bool) {
	for _, r := range s.runs {
		if r.RunID == id {
			return r, true
		}
	}
	return Record{}, false
}

// Scan streams every record matching f, in sequence order, to fn.
// The filter is pushed down to the segment walk: segments whose
// sequence range or run-id set cannot match are skipped without being
// read. fn returning a non-nil error stops the scan and returns it.
func (s *Store) Scan(f Filter, fn func(Record) error) error {
	for _, seg := range s.segs {
		if f.SinceSeq > 0 && seg.maxSeq < f.SinceSeq {
			continue
		}
		if f.RunID != "" && !seg.runIDs[f.RunID] {
			continue
		}
		if err := s.scanSegment(seg, f, fn); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) scanSegment(seg *segInfo, f Filter, fn func(Record) error) error {
	fh, err := os.Open(seg.path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer fh.Close()
	if _, err := fh.Seek(PageSize, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Never read past the replay-validated extent: the active segment
	// may carry a buffered, not-yet-indexed tail mid-Append, and a torn
	// tail is already excluded from seg.size.
	br := bufio.NewReader(io.LimitReader(fh, seg.size-PageSize))
	off := int64(PageSize)
	for {
		rec, next, err := readFrame(br, off)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("store: %s: %w", seg.path, err)
		}
		off = next
		if f.Match(rec) {
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
}

// Select collects every record matching f, in sequence order.
func (s *Store) Select(f Filter) ([]Record, error) {
	var out []Record
	err := s.Scan(f, func(r Record) error {
		out = append(out, r)
		return nil
	})
	return out, err
}
