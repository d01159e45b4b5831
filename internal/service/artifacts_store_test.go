package service

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestArtifactStoreConcurrentPuts: workers that store and read the same
// documents at once all get the documents' addresses and bytes back,
// and the store ends with one file per document and no temp file.
func TestArtifactStoreConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	st, err := newArtifactStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	docs := [][]byte{[]byte(`{"violation":1}`), []byte(`{"violation":2}`)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				doc := docs[(g+i)%len(docs)]
				id, err := st.put(doc)
				if err != nil || id != artifactID(doc) {
					t.Errorf("put: id %q, err %v", id, err)
					return
				}
				if got, err := st.get(id); err != nil || !bytes.Equal(got, doc) {
					t.Errorf("get %s…: %q, err %v", id[:8], got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var files []string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, filepath.Base(path))
		}
		return err
	})
	if len(files) != len(docs) {
		t.Errorf("store holds %v, want one file per document", files)
	}
}
