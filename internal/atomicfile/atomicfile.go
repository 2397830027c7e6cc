// Package atomicfile provides atomic file replacement: data is written
// to a temporary file in the destination directory and renamed into
// place, so a process killed mid-write never truncates the previous
// contents. Neither the file nor the directory is fsynced, so a power
// loss or kernel crash can still lose or truncate the new contents;
// the guarantee covers a killed process only. Every state file
// GreenSprint persists across restarts (simulation and controller
// checkpoints) goes through WriteFile or WriteChunks.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces the file at path with data. The
// temporary file is created in path's directory (rename is only atomic
// within a filesystem) and removed on any failure.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return WriteChunks(path, perm, data)
}

// WriteChunks is WriteFile of the chunks' concatenation, written one
// after another so the caller need not assemble them.
func WriteChunks(path string, perm os.FileMode, chunks ...[]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	for _, data := range chunks {
		if _, err := tmp.Write(data); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("atomicfile: %w", err)
		}
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicfile: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicfile: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicfile: %w", err)
	}
	return nil
}
