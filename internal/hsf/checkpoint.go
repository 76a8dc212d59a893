// Checkpoint/resume for the array engine. The engine fans the leading cut
// levels out into independent prefix tasks; a checkpoint records which
// prefixes finished plus the partial accumulator merged from exactly those
// prefixes, so a resumed run only re-simulates the unfinished subtrees and
// produces the same amplitudes as an uninterrupted run.
//
// The on-disk format is a little-endian binary stream (encoding/gob cannot
// represent complex128):
//
//	magic "HSFCKP1\n" | planHash u64 | numQubits u32 | m u64 |
//	splitLevels u32 | numPrefixes u64 | prefixes (splitLevels × u32 each) |
//	pathsSimulated u64 | acc (m × 2 float64)
package hsf

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"hsfsim/internal/cmat"
	"hsfsim/internal/cut"
)

var checkpointMagic = [8]byte{'H', 'S', 'F', 'C', 'K', 'P', '1', '\n'}

// ErrCheckpointMismatch is returned when a checkpoint was produced by a
// different plan (or different MaxAmplitudes) than the one being resumed.
var ErrCheckpointMismatch = errors.New("hsf: checkpoint does not match plan")

// ErrPrefixOverlap is returned by Checkpoint.Merge when the partial being
// merged contains a prefix that was already merged: folding it in would
// double-count its subtree's amplitudes.
var ErrPrefixOverlap = errors.New("hsf: partial overlaps already-merged prefixes")

// maxCheckpointPrefixes bounds the prefix table accepted from an untrusted
// checkpoint stream (the engine itself never exceeds ~4×workers tasks).
const maxCheckpointPrefixes = 1 << 24

// maxCheckpointSplitLevels bounds the per-prefix vector length accepted from
// an untrusted stream; real split depths are at most the plan's cut count.
const maxCheckpointSplitLevels = 1 << 16

// Checkpoint is a resumable snapshot of a partially executed plan.
type Checkpoint struct {
	// PlanHash fingerprints the plan (structure, cut ranks, Schmidt terms);
	// resuming against a different plan is rejected.
	PlanHash uint64
	// NumQubits and M pin the register size and accumulator length.
	NumQubits int
	M         int
	// SplitLevels is the number of leading cut levels expanded into prefix
	// tasks; a resumed run reuses it regardless of its own worker count.
	SplitLevels int
	// Prefixes lists the completed prefix choice vectors (each of length
	// SplitLevels).
	Prefixes [][]int
	// PathsSimulated counts the leaves contained in Acc.
	PathsSimulated int64
	// Acc is the partial accumulator summed over the completed prefixes.
	Acc []complex128
}

// Clone returns an independent deep copy. The prefix vectors themselves are
// shared: they are never mutated after creation. A distributed coordinator
// snapshots its merged state this way before streaming it to durable
// storage outside the merge lock.
func (ck *Checkpoint) Clone() *Checkpoint {
	cp := *ck
	cp.Prefixes = append([][]int(nil), ck.Prefixes...)
	cp.Acc = append([]complex128(nil), ck.Acc...)
	return &cp
}

// Flusher is the rate-limited checkpoint flusher of every durable run, local
// or distributed. Hook is the run's OnCheckpoint callback: called under the
// run's merge lock after each merged task, it clones the live checkpoint at
// most once per interval and hands the copy to a writer goroutine that calls
// save, so the walk never blocks on storage. A snapshot taken while the
// writer is still busy is dropped; a fresher one follows. The nil Flusher
// flushes nothing.
type Flusher struct {
	interval time.Duration
	save     func(*Checkpoint)
	last     time.Time // guarded by the merge lock Hook runs under
	ch       chan *Checkpoint
	quit     chan struct{}
	done     chan struct{}
}

// NewFlusher starts a flusher that saves at most one snapshot per interval.
func NewFlusher(interval time.Duration, save func(*Checkpoint)) *Flusher {
	f := &Flusher{interval: interval, save: save,
		ch: make(chan *Checkpoint, 1), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		for {
			select {
			case ck := <-f.ch:
				f.save(ck)
			case <-f.quit:
				return
			}
		}
	}()
	return f
}

// Hook offers the run's live checkpoint for flushing; see Flusher.
func (f *Flusher) Hook(ck *Checkpoint) {
	if f == nil {
		return
	}
	if now := time.Now(); now.Sub(f.last) >= f.interval {
		f.last = now
		select {
		case f.ch <- ck.Clone():
		default: // writer busy
		}
	}
}

// Stop ends the writer once a save in progress has returned; a snapshot
// still queued may be dropped. A run's final synchronous flush goes after
// Stop, so no older snapshot can land after it. Call Stop once.
func (f *Flusher) Stop() {
	if f == nil {
		return
	}
	close(f.quit)
	<-f.done
}

// PlanHash fingerprints the structural identity of a plan: register size,
// partition, step sequence, and every cut's Schmidt terms — singular values
// and factor entries, since a degenerate σ pair admits more than one basis
// and prefixes summed from two factorizations of one cut are not a run of
// either. Two plans with equal hashes execute the same path tree.
func PlanHash(plan *cut.Plan) uint64 {
	h := fnvOffset.u64(uint64(plan.NumQubits)).u64(uint64(int64(plan.Partition.CutPos)))
	for _, st := range plan.Steps {
		h = h.u64(uint64(st.Kind))
		switch {
		case st.Cut != nil:
			h = h.u64(uint64(st.Cut.Rank()))
			for _, t := range st.Cut.Terms {
				h = hashFactor(hashFactor(h.f64(t.Sigma), t.Upper), t.Lower)
			}
			for _, q := range st.Cut.LowerQubits {
				h = h.u64(uint64(q))
			}
			for _, q := range st.Cut.UpperQubits {
				h = h.u64(uint64(q))
			}
		default:
			h = h.u64(uint64(st.Side)).str(st.Gate.Name)
			for _, q := range st.Gate.Qubits {
				h = h.u64(uint64(q))
			}
			for _, p := range st.Gate.Params {
				h = h.f64(p)
			}
			if mat := st.Gate.Matrix; mat != nil {
				for _, v := range mat.Data {
					h = h.c128(v)
				}
			}
		}
	}
	return uint64(h)
}

// hashFactor appends a Schmidt factor to h. An exactly diagonal factor is
// covered by its diagonal: 2^n entries where the matrix has 4^n.
func hashFactor(h fnv64a, m *cmat.Matrix) fnv64a {
	stride := m.Cols + 1
	for r := 0; r < m.Rows && stride > 1; r++ {
		for c, v := range m.Data[r*m.Cols : (r+1)*m.Cols] {
			if v != 0 && c != r {
				stride = 1
				break
			}
		}
	}
	for i := 0; i < len(m.Data); i += stride {
		h = h.c128(m.Data[i])
	}
	return h
}

// WriteCheckpoint serializes ck to w.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(checkpointMagic[:]); err != nil {
		return err
	}
	wu := func(v uint64) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		_, err := bw.Write(buf[:])
		return err
	}
	w32 := func(v uint32) error {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], v)
		_, err := bw.Write(buf[:])
		return err
	}
	if err := wu(ck.PlanHash); err != nil {
		return err
	}
	if err := w32(uint32(ck.NumQubits)); err != nil {
		return err
	}
	if err := wu(uint64(ck.M)); err != nil {
		return err
	}
	if err := w32(uint32(ck.SplitLevels)); err != nil {
		return err
	}
	if err := wu(uint64(len(ck.Prefixes))); err != nil {
		return err
	}
	for _, p := range ck.Prefixes {
		if len(p) != ck.SplitLevels {
			return fmt.Errorf("hsf: checkpoint prefix length %d != split levels %d", len(p), ck.SplitLevels)
		}
		for _, t := range p {
			if err := w32(uint32(t)); err != nil {
				return err
			}
		}
	}
	if err := wu(uint64(ck.PathsSimulated)); err != nil {
		return err
	}
	for _, a := range ck.Acc {
		if err := wu(math.Float64bits(real(a))); err != nil {
			return err
		}
		if err := wu(math.Float64bits(imag(a))); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveCheckpointFile durably replaces the checkpoint file at path with ck
// (WriteFileAtomic), so a reader never sees a torn snapshot.
func SaveCheckpointFile(path string, ck *Checkpoint) error {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		return err
	}
	return WriteFileAtomic(path, buf.Bytes())
}

// WriteFileAtomic writes data to path via tmp → fsync → rename, so a kill at
// any instant leaves either the old file or the new one, never a hybrid. The
// tmp name is unique per call, so concurrent writers of one path never
// rename each other's half-written files: whichever rename lands last wins
// whole.
func WriteFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadCheckpoint deserializes a checkpoint written by WriteCheckpoint.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("hsf: reading checkpoint magic: %w", err)
	}
	if magic != checkpointMagic {
		return nil, errors.New("hsf: not a checkpoint file")
	}
	var buf [8]byte
	ru := func() (uint64, error) {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	r32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(buf[:4]), nil
	}
	ck := &Checkpoint{}
	var err error
	if ck.PlanHash, err = ru(); err != nil {
		return nil, fmt.Errorf("hsf: reading checkpoint: %w", err)
	}
	nq, err := r32()
	if err != nil {
		return nil, fmt.Errorf("hsf: reading checkpoint: %w", err)
	}
	ck.NumQubits = int(nq)
	m, err := ru()
	if err != nil {
		return nil, fmt.Errorf("hsf: reading checkpoint: %w", err)
	}
	if m > uint64(math.MaxInt/bytesPerAmp) {
		return nil, fmt.Errorf("hsf: checkpoint accumulator length %d too large", m)
	}
	ck.M = int(m)
	sl, err := r32()
	if err != nil {
		return nil, fmt.Errorf("hsf: reading checkpoint: %w", err)
	}
	if sl > maxCheckpointSplitLevels {
		return nil, fmt.Errorf("hsf: checkpoint split levels %d too large", sl)
	}
	ck.SplitLevels = int(sl)
	np, err := ru()
	if err != nil {
		return nil, fmt.Errorf("hsf: reading checkpoint: %w", err)
	}
	if np > maxCheckpointPrefixes {
		return nil, fmt.Errorf("hsf: checkpoint prefix count %d too large", np)
	}
	// The prefix table and accumulator are appended to incrementally: the
	// hostile-length headers above only ever cost allocation proportional to
	// the bytes actually present in the stream, never the declared count.
	for i := uint64(0); i < np; i++ {
		p := make([]int, ck.SplitLevels)
		for j := range p {
			t, err := r32()
			if err != nil {
				return nil, fmt.Errorf("hsf: reading checkpoint prefixes: %w", err)
			}
			p[j] = int(t)
		}
		ck.Prefixes = append(ck.Prefixes, p)
	}
	ps, err := ru()
	if err != nil {
		return nil, fmt.Errorf("hsf: reading checkpoint: %w", err)
	}
	ck.PathsSimulated = int64(ps)
	for i := 0; i < ck.M; i++ {
		re, err := ru()
		if err != nil {
			return nil, fmt.Errorf("hsf: reading checkpoint accumulator: %w", err)
		}
		im, err := ru()
		if err != nil {
			return nil, fmt.Errorf("hsf: reading checkpoint accumulator: %w", err)
		}
		ck.Acc = append(ck.Acc, complex(math.Float64frombits(re), math.Float64frombits(im)))
	}
	return ck, nil
}

// Merge folds a partial accumulation over a disjoint prefix set into ck:
// the accumulators are summed, the prefix table and leaf counts extended.
// Both snapshots must come from the same plan, accumulator length, and split
// depth (ErrCheckpointMismatch otherwise), and no prefix may appear on both
// sides (ErrPrefixOverlap) — the guard that makes distributed merging
// at-most-once per prefix even when a lease is delivered twice. On error ck
// is unchanged.
func (ck *Checkpoint) Merge(p *Checkpoint) error {
	switch {
	case p.PlanHash != ck.PlanHash:
		return fmt.Errorf("%w: plan hash %016x != partial %016x",
			ErrCheckpointMismatch, ck.PlanHash, p.PlanHash)
	case p.NumQubits != ck.NumQubits:
		return fmt.Errorf("%w: %d qubits != partial %d",
			ErrCheckpointMismatch, ck.NumQubits, p.NumQubits)
	case p.M != ck.M || len(p.Acc) != len(ck.Acc):
		return fmt.Errorf("%w: accumulator length %d != partial %d",
			ErrCheckpointMismatch, ck.M, p.M)
	case p.SplitLevels != ck.SplitLevels:
		return fmt.Errorf("%w: split levels %d != partial %d",
			ErrCheckpointMismatch, ck.SplitLevels, p.SplitLevels)
	}
	seen := make(map[string]bool, len(ck.Prefixes))
	for _, q := range ck.Prefixes {
		seen[PrefixKey(q)] = true
	}
	for _, q := range p.Prefixes {
		if seen[PrefixKey(q)] {
			return fmt.Errorf("%w: prefix %v", ErrPrefixOverlap, q)
		}
	}
	for i, v := range p.Acc {
		ck.Acc[i] += v
	}
	ck.Prefixes = append(ck.Prefixes, p.Prefixes...)
	ck.PathsSimulated += p.PathsSimulated
	return nil
}

// validateFor checks that the checkpoint belongs to plan with accumulator
// length m and a compatible split depth.
func (ck *Checkpoint) validateFor(plan *cut.Plan, m int) error {
	if ck.PlanHash != PlanHash(plan) {
		return fmt.Errorf("%w: plan hash %016x != checkpoint %016x",
			ErrCheckpointMismatch, PlanHash(plan), ck.PlanHash)
	}
	if ck.NumQubits != plan.NumQubits {
		return fmt.Errorf("%w: %d qubits != checkpoint %d",
			ErrCheckpointMismatch, plan.NumQubits, ck.NumQubits)
	}
	if ck.M != m {
		return fmt.Errorf("%w: accumulator length %d != checkpoint %d (set MaxAmplitudes to match)",
			ErrCheckpointMismatch, m, ck.M)
	}
	if len(ck.Acc) != ck.M {
		return fmt.Errorf("%w: accumulator payload %d != header %d",
			ErrCheckpointMismatch, len(ck.Acc), ck.M)
	}
	if ck.SplitLevels < 0 || ck.SplitLevels > len(plan.Cuts) {
		return fmt.Errorf("%w: split levels %d out of range [0, %d]",
			ErrCheckpointMismatch, ck.SplitLevels, len(plan.Cuts))
	}
	for _, p := range ck.Prefixes {
		if len(p) != ck.SplitLevels {
			return fmt.Errorf("%w: prefix length %d != split levels %d",
				ErrCheckpointMismatch, len(p), ck.SplitLevels)
		}
		for l, t := range p {
			if t < 0 || t >= plan.Cuts[l].Rank() {
				return fmt.Errorf("%w: prefix term %d out of range for cut %d (rank %d)",
					ErrCheckpointMismatch, t, l, plan.Cuts[l].Rank())
			}
		}
	}
	return nil
}
