package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
)

// artifactStore persists content-addressed JSON blobs: the ID is the
// SHA-256 of the bytes, the path <dir>/<id[:2]>/<id>.json. Identical
// content dedups to one file, and a fetched artifact can always be
// verified against its own name.
type artifactStore struct {
	dir string
	tel *serviceTelemetry
}

func newArtifactStore(dir string, tel *serviceTelemetry) (*artifactStore, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact dir: %w", err)
	}
	return &artifactStore{dir: dir, tel: tel}, nil
}

// artifactID is the content address of an artifact's bytes; whoever
// fetches one checks the bytes against the id it asked for.
func artifactID(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// put writes data and returns its content address. Re-putting
// identical content keeps the file already there and returns the same
// ID; a file of another size than data was damaged and is written
// again (get removes one whose bytes were altered in place).
func (s *artifactStore) put(data []byte) (string, error) {
	id := artifactID(data)
	path := s.path(id)
	if fi, err := os.Stat(path); err == nil && fi.Size() == int64(len(data)) {
		if s.tel != nil {
			s.tel.artifactsReused.Inc()
		}
		return id, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	// Write-then-rename so a concurrent reader never sees a torn file.
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+id+".tmp*")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	if s.tel != nil {
		s.tel.artifactsWritten.Inc()
		s.tel.artifactBytes.Add(int64(len(data)))
	}
	return id, nil
}

// get returns an artifact's bytes by content address, and only bytes
// that still hash to it: a truncated or altered file is an error, and
// is removed so that the next put of that content writes it afresh.
func (s *artifactStore) get(id string) ([]byte, error) {
	if !validArtifactID(id) {
		return nil, fmt.Errorf("invalid artifact id %q", id)
	}
	data, err := os.ReadFile(s.path(id))
	if err == nil && artifactID(data) != id {
		// Should the remove fail, the next read finds the file again.
		os.Remove(s.path(id))
		err = fmt.Errorf("artifact %s: content does not match its name", id)
	}
	return data, err
}

func (s *artifactStore) path(id string) string {
	return filepath.Join(s.dir, id[:2], id+".json")
}

// validArtifactID admits exactly lowercase SHA-256 hex — everything a
// path traversal needs is excluded by construction.
func validArtifactID(id string) bool {
	if len(id) != 64 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
