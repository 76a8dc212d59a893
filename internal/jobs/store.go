package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hsfsim"
	"hsfsim/internal/hsf"
)

// Manifest is the durable JSON record of one job: the submission (QASM
// source + wire-form options) and its lifecycle state. Amplitude payloads —
// mid-run checkpoints and final results — are stored separately in the PR-1
// binary checkpoint format; the manifest carries only metadata.
type Manifest struct {
	ID          string      `json:"id"`
	Tenant      string      `json:"tenant"`
	Priority    int         `json:"priority"`
	RequestID   string      `json:"request_id,omitempty"`
	QASM        string      `json:"qasm"`
	Opts        WireOptions `json:"opts"`
	Fingerprint uint64      `json:"fingerprint,string"`
	State       State       `json:"state"`
	Created     time.Time   `json:"created"`
	Started     time.Time   `json:"started,omitempty"`
	Finished    time.Time   `json:"finished,omitempty"`
	Resumed     bool        `json:"resumed,omitempty"`
	BatchSize   int         `json:"batch_size,omitempty"`
	Error       string      `json:"error,omitempty"`
	// Result metadata for done jobs; the amplitudes live in the result
	// checkpoint file (Acc field), retrievable via Store.GetResult.
	ResultMeta *ResultMeta `json:"result,omitempty"`
	// Distribute marks a job that runs on the dist fleet. It is omitted for
	// local jobs, so manifests written before the field existed read as local.
	Distribute bool `json:"distribute,omitempty"`

	// seq orders a job's manifests by snapshot time inside one manager (see
	// job.manSeq); it is not stored.
	seq uint64
}

// ResultMeta is the scalar part of a finished job's result.
type ResultMeta struct {
	NumQubits       int     `json:"num_qubits"`
	NumPaths        uint64  `json:"num_paths,string"`
	Log2Paths       float64 `json:"log2_paths"`
	PathsSimulated  int64   `json:"paths_simulated"`
	NumCuts         int     `json:"num_cuts"`
	NumBlocks       int     `json:"num_blocks"`
	NumSeparateCuts int     `json:"num_separate_cuts"`
	PreprocessNS    int64   `json:"preprocess_ns"`
	SimNS           int64   `json:"sim_ns"`
}

// WireOptions is the JSON-serializable subset of hsfsim.Options a job
// carries: everything that affects the plan or the run, nothing that is a
// live callback. Methods and strategies serialize as their stable integer
// constants. Manifests written with a "backend" field (the retired
// decision-diagram walker was 1) still load: the field is ignored and the job
// runs dense, which gives the same amplitudes and checkpoints.
type WireOptions struct {
	Method          int     `json:"method"`
	CutPos          int     `json:"cut_pos"`
	MaxAmplitudes   int     `json:"max_amplitudes,omitempty"`
	Workers         int     `json:"workers,omitempty"`
	Strategy        int     `json:"strategy,omitempty"`
	MaxBlockQubits  int     `json:"max_block_qubits,omitempty"`
	FusionMaxQubits int     `json:"fusion_max_qubits,omitempty"`
	Tol             float64 `json:"tol,omitempty"`
	TimeoutNS       int64   `json:"timeout_ns,omitempty"`
	MemoryBudget    int64   `json:"memory_budget,omitempty"`
	MaxPaths        uint64  `json:"max_paths,omitempty,string"`
}

// wireOptions captures the durable fields of opts.
func wireOptions(opts hsfsim.Options) WireOptions {
	return WireOptions{
		Method:          int(opts.Method),
		CutPos:          opts.CutPos,
		MaxAmplitudes:   opts.MaxAmplitudes,
		Workers:         opts.Workers,
		Strategy:        int(opts.BlockStrategy),
		MaxBlockQubits:  opts.MaxBlockQubits,
		FusionMaxQubits: opts.FusionMaxQubits,
		Tol:             opts.Tol,
		TimeoutNS:       int64(opts.Timeout),
		MemoryBudget:    opts.MemoryBudget,
		MaxPaths:        opts.MaxPaths,
	}
}

// Options reconstructs the hsfsim.Options a stored job runs with.
func (w WireOptions) Options() hsfsim.Options {
	return hsfsim.Options{
		Method:          hsfsim.Method(w.Method),
		CutPos:          w.CutPos,
		MaxAmplitudes:   w.MaxAmplitudes,
		Workers:         w.Workers,
		BlockStrategy:   hsfsim.BlockStrategy(w.Strategy),
		MaxBlockQubits:  w.MaxBlockQubits,
		FusionMaxQubits: w.FusionMaxQubits,
		Tol:             w.Tol,
		Timeout:         time.Duration(w.TimeoutNS),
		MemoryBudget:    w.MemoryBudget,
		MaxPaths:        w.MaxPaths,
	}
}

// Store persists job manifests and amplitude payloads. Implementations must
// make Put* atomic (a torn write must not corrupt an existing record);
// Get* return (nil, nil) for absent keys.
type Store interface {
	// PutJob durably records a manifest, replacing any prior record of the
	// same job ID.
	PutJob(m *Manifest) error
	// Jobs returns every stored manifest, in unspecified order.
	Jobs() ([]*Manifest, error)
	// PutCheckpoint durably records a mid-run walk checkpoint under key.
	PutCheckpoint(key string, ck *hsfsim.Checkpoint) error
	// GetCheckpoint returns the checkpoint stored under key, or (nil, nil).
	GetCheckpoint(key string) (*hsfsim.Checkpoint, error)
	// DeleteCheckpoint removes a checkpoint; absent keys are not an error.
	DeleteCheckpoint(key string) error
	// PutResult durably records a finished job's amplitudes (as a PR-1
	// checkpoint whose Acc holds them).
	PutResult(id string, ck *hsfsim.Checkpoint) error
	// GetResult returns a finished job's stored amplitudes, or (nil, nil).
	GetResult(id string) (*hsfsim.Checkpoint, error)
}

// DirStore is the filesystem Store: one JSON manifest per job under jobs/,
// binary checkpoints under ckpt/, result payloads under results/. Every
// write goes tmp → fsync → rename through hsf.WriteFileAtomic, the writer the
// CLI's -checkpoint file uses too, so a kill at any instant leaves either the
// old record or the new one, never a hybrid.
type DirStore struct {
	dir string
}

// NewDirStore creates (if needed) and opens the store rooted at dir.
func NewDirStore(dir string) (*DirStore, error) {
	for _, sub := range []string{"jobs", "ckpt", "results"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("jobs: create store: %w", err)
		}
	}
	return &DirStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *DirStore) Dir() string { return s.dir }

// sanitizeKey keeps store keys safe as file names.
func sanitizeKey(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, key)
}

func (s *DirStore) PutJob(m *Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("jobs: marshal manifest: %w", err)
	}
	// The same job can be persisted concurrently (its submitter writing the
	// queued state while a runner writes the running one); the stalest
	// possible survivor is an earlier state, which restart handles by
	// re-offering the job.
	return hsf.WriteFileAtomic(filepath.Join(s.dir, "jobs", sanitizeKey(m.ID)+".json"), data)
}

func (s *DirStore) Jobs() ([]*Manifest, error) {
	ents, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, err
	}
	var out []*Manifest
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, "jobs", e.Name()))
		if err != nil {
			return nil, err
		}
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			// A torn manifest can only be a crashed pre-rename tmp that a
			// broken filesystem surfaced; skip it rather than refusing to
			// start the whole service.
			continue
		}
		out = append(out, &m)
	}
	return out, nil
}

func (s *DirStore) getCkptFile(path string) (*hsfsim.Checkpoint, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	ck, err := hsf.ReadCheckpoint(bytes.NewReader(data))
	if err != nil {
		// A corrupt checkpoint only costs resume granularity; callers fall
		// back to running the batch from scratch.
		return nil, nil
	}
	return ck, nil
}

func (s *DirStore) PutCheckpoint(key string, ck *hsfsim.Checkpoint) error {
	return hsf.SaveCheckpointFile(filepath.Join(s.dir, "ckpt", sanitizeKey(key)+".ckpt"), ck)
}

func (s *DirStore) GetCheckpoint(key string) (*hsfsim.Checkpoint, error) {
	return s.getCkptFile(filepath.Join(s.dir, "ckpt", sanitizeKey(key)+".ckpt"))
}

func (s *DirStore) DeleteCheckpoint(key string) error {
	err := os.Remove(filepath.Join(s.dir, "ckpt", sanitizeKey(key)+".ckpt"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

func (s *DirStore) PutResult(id string, ck *hsfsim.Checkpoint) error {
	return hsf.SaveCheckpointFile(filepath.Join(s.dir, "results", sanitizeKey(id)+".ckpt"), ck)
}

func (s *DirStore) GetResult(id string) (*hsfsim.Checkpoint, error) {
	return s.getCkptFile(filepath.Join(s.dir, "results", sanitizeKey(id)+".ckpt"))
}
