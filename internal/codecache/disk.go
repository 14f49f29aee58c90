package codecache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"wizgo/internal/faultinject"
	"wizgo/internal/wbin"
)

// Fault-injection points of the disk tier. Each simulates a failure the
// envelope design must degrade through without an error reaching the
// caller: Load's contract is "a bad artifact is a miss", so every one of
// these must end in a recompile, never a crash or a poisoned cache.
var (
	// PointDiskMap simulates an mmap/read failure of an existing
	// artifact file (EIO, EACCES): Load must report a plain miss.
	PointDiskMap = faultinject.Register("codecache.disk.mmap")
	// PointDiskShortRead simulates a truncated artifact (crashed writer,
	// torn copy): verification must fail and evict it.
	PointDiskShortRead = faultinject.Register("codecache.disk.shortread")
	// PointDiskChecksum simulates bit rot in the artifact body: the
	// checksum must catch it and evict.
	PointDiskChecksum = faultinject.Register("codecache.disk.checksum")
	// PointDiskStaleLock forces TryLock's stale-lock judgment: a held
	// lock is treated as abandoned and broken, the crashed-writer
	// recovery path.
	PointDiskStaleLock = faultinject.Register("codecache.disk.stalelock")
)

// The on-disk artifact envelope. Everything the in-memory tier trusts
// implicitly — that an artifact was produced by this compiler revision
// for this ISA from exactly these module bytes — must be verifiable
// before a single payload byte is interpreted, because cache
// directories survive binary upgrades, partial writes and bit rot.
//
//	offset 0   magic "WZGC"
//	           u32    format version
//	           string ISA
//	           string compiler revision
//	           [32]   module content hash (SHA-256)
//	           string engine configuration fingerprint
//	           uvar   payload length, payload bytes
//	  tail     [32]   SHA-256 checksum of everything above
const (
	diskMagic         = "WZGC"
	diskFormatVersion = 1
	artifactExt       = ".wzc"
	lockExt           = ".lock"
)

// Stamp identifies the producer of an artifact. An artifact whose stamp
// does not match the store's is unusable (a different instruction set
// or a compiler whose output format or semantics changed) and is
// treated exactly like corruption: evicted and recompiled.
type Stamp struct {
	// ISA names the target instruction set of the emitted code.
	ISA string
	// CompilerRevision changes whenever compiled output changes shape or
	// meaning; internal/engine owns the constant.
	CompilerRevision string
}

// DiskOptions configures a DiskStore.
type DiskOptions struct {
	// Stamp is the producer identity stamped into (and required of)
	// every artifact.
	Stamp Stamp
	// StaleLockAfter is the age past which another process's lock file
	// is presumed abandoned (its owner crashed mid-compile) and broken.
	// 0 means 2 minutes.
	StaleLockAfter time.Duration
	// WaitTimeout bounds how long a process that lost the write race
	// waits for the winner's artifact to appear before compiling
	// independently. 0 means 10 seconds.
	WaitTimeout time.Duration
	// WaitPoll is the polling interval while waiting. 0 means 2ms.
	WaitPoll time.Duration
}

// DiskStats are the disk tier's monotonic counters.
type DiskStats struct {
	// Hits and Misses count Load outcomes; a hit means a verified
	// artifact was returned.
	Hits, Misses uint64
	// Writes counts artifacts durably published (temp file + rename).
	Writes uint64
	// CorruptEvictions counts artifacts (or stale lock files) removed
	// because verification failed: truncation, checksum mismatch,
	// version/ISA/compiler-revision mismatch, or undecodable payload.
	CorruptEvictions uint64
	// WaitHits counts Loads satisfied by waiting out another process's
	// in-flight write instead of compiling.
	WaitHits uint64
}

// DiskStore is the persistent tier below the in-memory Cache: artifacts
// spill to a directory keyed by the same content hash the shards use,
// survive process restarts, and load back without running the compiler.
// All methods are safe for concurrent use by any number of goroutines
// and processes sharing the directory.
type DiskStore struct {
	dir  string
	opts DiskOptions

	hits     atomic.Uint64
	misses   atomic.Uint64
	writes   atomic.Uint64
	corrupt  atomic.Uint64
	waitHits atomic.Uint64
}

// OpenDisk opens (creating if needed) an artifact store rooted at dir.
func OpenDisk(dir string, opts DiskOptions) (*DiskStore, error) {
	if opts.StaleLockAfter <= 0 {
		opts.StaleLockAfter = 2 * time.Minute
	}
	if opts.WaitTimeout <= 0 {
		opts.WaitTimeout = 10 * time.Second
	}
	if opts.WaitPoll <= 0 {
		opts.WaitPoll = 2 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("codecache: opening disk store: %w", err)
	}
	return &DiskStore{dir: dir, opts: opts}, nil
}

// Dir returns the store's root directory.
func (d *DiskStore) Dir() string { return d.dir }

// fileName derives the artifact file name for a key: the module content
// hash plus a digest of the configuration fingerprint, so one module
// compiled under two presets yields two artifacts.
func (d *DiskStore) fileName(k Key) string {
	cfg := sha256.Sum256([]byte(k.Config))
	return hex.EncodeToString(k.Hash[:20]) + "-" + hex.EncodeToString(cfg[:8]) + artifactExt
}

func (d *DiskStore) path(k Key) string     { return filepath.Join(d.dir, d.fileName(k)) }
func (d *DiskStore) lockPath(k Key) string { return d.path(k) + lockExt }

// Load returns the verified payload of the artifact for k, if present.
// The payload may alias an mmap'd region: the caller must finish with
// it (copying anything retained) and then call done. A missing artifact
// is a miss; an artifact that fails any verification step is evicted,
// counted, and reported as a miss — corruption is never an error here,
// because the caller's fallback (recompile) is always available.
func (d *DiskStore) Load(k Key) (payload []byte, done func(), ok bool) {
	data, unmap, err := mapFile(d.path(k))
	if err == nil {
		if ferr := faultinject.Fire(PointDiskMap); ferr != nil {
			unmap()
			data, unmap, err = nil, nil, ferr
		}
	}
	if err != nil {
		// ENOENT is the common cold-cache case; anything else (EACCES,
		// EIO) equally means "no usable artifact".
		d.misses.Add(1)
		mDiskMisses.Inc()
		return nil, nil, false
	}
	if faultinject.Fire(PointDiskShortRead) != nil {
		data = data[:len(data)/2]
	}
	if faultinject.Fire(PointDiskChecksum) != nil && len(data) > 0 {
		// The mapping may be read-only; corrupt a copy.
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)-1] ^= 0x01
		data = flipped
	}
	payload, err = d.verify(k, data)
	if err != nil {
		unmap()
		d.evictCorrupt(k)
		d.misses.Add(1)
		mDiskMisses.Inc()
		return nil, nil, false
	}
	d.hits.Add(1)
	mDiskHits.Inc()
	return payload, unmap, true
}

// verify checks the envelope of raw artifact bytes against the store's
// stamp and the requested key, returning the payload on success.
func (d *DiskStore) verify(k Key, data []byte) ([]byte, error) {
	if len(data) < len(diskMagic)+sha256.Size {
		return nil, fmt.Errorf("codecache: artifact truncated: %d bytes", len(data))
	}
	body, tail := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(tail) {
		return nil, errors.New("codecache: artifact checksum mismatch")
	}
	r := wbin.NewReader(body)
	if string(r.Raw(len(diskMagic))) != diskMagic {
		return nil, errors.New("codecache: bad artifact magic")
	}
	if v := r.U32(); v != diskFormatVersion {
		return nil, fmt.Errorf("codecache: artifact format version %d, want %d", v, diskFormatVersion)
	}
	if isa := r.String(); isa != d.opts.Stamp.ISA {
		return nil, fmt.Errorf("codecache: artifact ISA %q, store requires %q", isa, d.opts.Stamp.ISA)
	}
	if rev := r.String(); rev != d.opts.Stamp.CompilerRevision {
		return nil, fmt.Errorf("codecache: artifact compiler revision %q, store requires %q", rev, d.opts.Stamp.CompilerRevision)
	}
	if hash := r.Raw(sha256.Size); string(hash) != string(k.Hash[:]) {
		return nil, errors.New("codecache: artifact content hash mismatch")
	}
	if cfg := r.String(); cfg != k.Config {
		return nil, errors.New("codecache: artifact configuration fingerprint mismatch")
	}
	n := r.Length()
	if r.Err() != nil {
		return nil, r.Err()
	}
	payload := body[len(body)-r.Remaining():]
	if len(payload) != n {
		return nil, fmt.Errorf("codecache: payload length %d, header says %d", len(payload), n)
	}
	return payload, nil
}

// Store durably publishes an artifact for k. The write is crash-safe:
// the envelope is assembled in an O_EXCL temp file in the same
// directory and atomically renamed into place, so readers only ever
// observe a complete artifact. If the artifact already exists the write
// is skipped — content-addressed artifacts for one key are identical.
func (d *DiskStore) Store(k Key, payload []byte) error {
	final := d.path(k)
	if _, err := os.Stat(final); err == nil {
		return nil
	}

	// CreateTemp opens with O_EXCL under a random suffix, so a crashed
	// writer's leftover temp never blocks a retry; leftovers are garbage
	// in the cache dir, not corruption.
	tmp, err := os.CreateTemp(d.dir, d.fileName(k)+".tmp*")
	if err != nil {
		return fmt.Errorf("codecache: writing artifact: %w", err)
	}
	tmpName := tmp.Name()

	// Header, payload and digest stream through one hash into the file:
	// the payload is megabytes and is never copied.
	hdr := wbin.NewWriter(256)
	hdr.Raw([]byte(diskMagic))
	hdr.U32(diskFormatVersion)
	hdr.String(d.opts.Stamp.ISA)
	hdr.String(d.opts.Stamp.CompilerRevision)
	hdr.Raw(k.Hash[:])
	hdr.String(k.Config)
	hdr.Uvarint(uint64(len(payload)))
	h := sha256.New()
	out := io.MultiWriter(tmp, h)
	_, err = out.Write(hdr.Bytes())
	if err == nil {
		_, err = out.Write(payload)
	}
	if err == nil {
		_, err = tmp.Write(h.Sum(nil))
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("codecache: writing artifact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("codecache: writing artifact: %w", err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("codecache: publishing artifact: %w", err)
	}
	d.writes.Add(1)
	mDiskWrites.Inc()
	return nil
}

// evictCorrupt removes an unusable artifact so the next Load is a clean
// miss instead of re-verifying the same bad bytes forever.
func (d *DiskStore) evictCorrupt(k Key) {
	if err := os.Remove(d.path(k)); err == nil || errors.Is(err, fs.ErrNotExist) {
		d.corrupt.Add(1)
		mDiskCorrupt.Inc()
	}
}

// EvictCorrupt removes the artifact for k after a payload-level decode
// failure (the envelope verified but the contents did not make sense to
// the consumer). Exposed for the cache layer.
func (d *DiskStore) EvictCorrupt(k Key) { d.evictCorrupt(k) }

// TryLock attempts to become the single cross-process writer for k via
// an O_EXCL lock file. On success it returns acquired=true and an
// unlock function. A lock older than StaleLockAfter is presumed
// abandoned (crashed writer), broken, and re-acquired.
func (d *DiskStore) TryLock(k Key) (unlock func(), acquired bool) {
	lp := d.lockPath(k)
	for attempt := 0; attempt < 2; attempt++ {
		f, err := os.OpenFile(lp, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			// The pid is advisory, for humans inspecting a wedged dir.
			fmt.Fprintf(f, "%d\n", os.Getpid())
			f.Close()
			return func() { os.Remove(lp) }, true
		}
		st, serr := os.Stat(lp)
		if serr != nil {
			// Lock vanished between OpenFile and Stat: retry once.
			continue
		}
		stale := time.Since(st.ModTime()) > d.opts.StaleLockAfter
		if faultinject.Fire(PointDiskStaleLock) != nil {
			stale = true
		}
		if stale {
			// Abandoned lock: its owner died mid-compile. Breaking it is
			// an eviction of corrupt state, counted as such.
			os.Remove(lp)
			d.corrupt.Add(1)
			mDiskCorrupt.Inc()
			continue
		}
		return nil, false
	}
	return nil, false
}

// WaitForArtifact blocks (bounded by WaitTimeout) for another process's
// in-flight write of k to land, then loads it. It returns early when
// the writer's lock disappears without an artifact — the writer failed,
// and the caller should compile independently.
func (d *DiskStore) WaitForArtifact(k Key) (payload []byte, done func(), ok bool) {
	deadline := time.Now().Add(d.opts.WaitTimeout)
	for {
		if _, err := os.Stat(d.path(k)); err == nil {
			if payload, done, ok = d.Load(k); ok {
				d.waitHits.Add(1)
				return payload, done, true
			}
			return nil, nil, false
		}
		if _, err := os.Stat(d.lockPath(k)); err != nil {
			// No artifact and no lock: the writer gave up (compile
			// error) or crashed after we saw its lock.
			return nil, nil, false
		}
		if time.Now().After(deadline) {
			return nil, nil, false
		}
		time.Sleep(d.opts.WaitPoll)
	}
}

// readFile is the portable load path behind mapFile.
func readFile(path string) ([]byte, func(), error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return data, func() {}, nil
}

// Stats returns a snapshot of the disk tier's counters.
func (d *DiskStore) Stats() DiskStats {
	return DiskStats{
		Hits:             d.hits.Load(),
		Misses:           d.misses.Load(),
		Writes:           d.writes.Load(),
		CorruptEvictions: d.corrupt.Load(),
		WaitHits:         d.waitHits.Load(),
	}
}

// Len returns the number of artifacts currently on disk.
func (d *DiskStore) Len() int {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == artifactExt {
			n++
		}
	}
	return n
}
