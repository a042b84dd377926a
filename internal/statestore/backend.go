// Package statestore is the platform half of the explorer's state
// storage: the spill filesystem the one statecodec.Store spills to past
// a memory budget (private temp directories, append-only files,
// generations mapped read-only with mmap where the platform has it),
// and the process telemetry probe (peak RSS via /proc on Linux, zero
// elsewhere). The store itself, and every decision about what spills
// when, lives in internal/statecodec.
package statestore

import (
	"os"
	"path/filepath"

	"repro/internal/statecodec"
)

// Runtime is the platform wiring an exploration needs beyond the pure
// core: the spill filesystem and the process peak-RSS probe. The CLI,
// the bbvd service, the exhibits and the bbv facade all pass this to
// machine/core; core-layer consumers (the wasm playground, embedded
// library use without OS access) run on the zero statecodec.Backend
// instead and lose nothing but memory budgets and RSS telemetry.
func Runtime() statecodec.Backend {
	return statecodec.Backend{Spill: osFS{}, PeakRSS: ProcessPeakRSS}
}

// osFS is the spill filesystem of the operating system: spill files are
// plain temp files, and generations are mapped read-only where the
// platform has mmap.
type osFS struct{}

func (osFS) MkdirTemp(parent string) (string, error) {
	return os.MkdirTemp(parent, "bbv-statestore-*")
}

func (osFS) Create(dir, name string) (statecodec.SpillFile, error) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	return &file{File: f}, nil
}

func (osFS) RemoveAll(dir string) error { return os.RemoveAll(dir) }

// file is one spill file and, once mapped, its mapping.
type file struct {
	*os.File
	data   []byte
	mapped bool
}

func (f *file) Map(size int64) ([]byte, error) {
	data, mapped, err := mmapFile(f.File, size)
	if err != nil {
		return nil, err
	}
	f.data, f.mapped = data, mapped
	return data, nil
}

func (f *file) Close() error {
	var err error
	if f.mapped {
		err = munmapFile(f.data)
		f.data, f.mapped = nil, false
	}
	if cerr := f.File.Close(); err == nil {
		err = cerr
	}
	return err
}

func (f *file) Remove() error {
	name := f.Name()
	if err := f.Close(); err != nil {
		return err
	}
	return os.Remove(name)
}
