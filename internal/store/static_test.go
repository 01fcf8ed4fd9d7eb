package store

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
)

// entryInfo returns the snapshot of one catalog entry.
func entryInfo(t *testing.T, s *Store, name string) EntryInfo {
	t.Helper()
	for _, e := range s.Snapshot().Backends {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no entry %q in the catalog", name)
	return EntryInfo{}
}

// TestPinnedIndexShadowsDirectoryEntries pins the shadow rule that lives in
// Store.add: an AddIndex entry serves its in-memory index whether it was
// registered before or after a directory scan found a file of the same
// name, and an explicit Add wins over a scanned file the same way.
func TestPinnedIndexShadowsDirectoryEntries(t *testing.T) {
	dir := t.TempDir()
	rawFile, refFile := pesBytes(t, 50, 70, 18, 350)
	writePes(t, filepath.Join(dir, "shared.pes"), rawFile)
	_, refPinned := pesBytes(t, 51, 60, 15, 300)
	ctx := context.Background()

	// Pinned first: the scan skips the name.
	s1 := New(Options{})
	defer s1.Close()
	if err := s1.AddIndex("shared", refPinned); err != nil {
		t.Fatal(err)
	}
	if added, err := s1.AddDir(dir); err != nil || added != 0 {
		t.Fatalf("AddDir over a pinned name: added %d, err %v", added, err)
	}

	// Scan first, with the scanned file loaded and held by a query: the
	// pinned index takes over the name, and the held handle keeps its
	// generation until released.
	s2 := New(Options{})
	defer s2.Close()
	if _, err := s2.AddDir(dir); err != nil {
		t.Fatal(err)
	}
	held, err := s2.Acquire(ctx, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AddIndex("shared", refPinned); err != nil {
		t.Fatalf("AddIndex over a scanned entry: %v", err)
	}
	sameAnswers(t, held.Index(), refFile)
	held.Release()
	if st := s2.Snapshot(); st.LoadedBytes != 0 {
		t.Fatalf("shadowed generation still charged %d bytes after release", st.LoadedBytes)
	}

	for i, s := range []*Store{s1, s2} {
		h, err := s.Acquire(ctx, "shared")
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, h.Index(), refPinned)
		h.Release()
		if e := entryInfo(t, s, "shared"); !e.Static || e.Path != "" || !e.Loaded {
			t.Fatalf("store %d: shared entry is not the pinned index: %+v", i+1, e)
		}
	}
	// Pinned never loses to anything, not even a second pinned index.
	if err := s2.AddIndex("shared", refFile); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("second AddIndex: error %v, want ErrDuplicate", err)
	}

	// An explicit Add after a scan wins the same way.
	s3 := New(Options{})
	defer s3.Close()
	if _, err := s3.AddDir(dir); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(t.TempDir(), "other.pes")
	rawOther, refOther := pesBytes(t, 52, 50, 12, 250)
	writePes(t, other, rawOther)
	if err := s3.Add("shared", other); err != nil {
		t.Fatalf("Add over a scanned entry: %v", err)
	}
	h, err := s3.Acquire(ctx, "shared")
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, h.Index(), refOther)
	h.Release()
}

// TestPinnedIndexNeverRefreshedOrEvicted checks the other two halves of
// the pinned contract: Refresh leaves a pinned entry alone even when a
// scanned directory holds a rewritten file of its name, and a 1-byte
// budget that evicts every file-backed generation never evicts it.
func TestPinnedIndexNeverRefreshedOrEvicted(t *testing.T) {
	dir := t.TempDir()
	_, refPinned := pesBytes(t, 60, 60, 15, 300)
	rawFile, _ := pesBytes(t, 61, 70, 18, 350)
	writePes(t, filepath.Join(dir, "pinned.pes"), rawFile)
	writePes(t, filepath.Join(dir, "file.pes"), rawFile)
	ctx := context.Background()

	s := New(Options{MemBudget: 1})
	defer s.Close()
	if err := s.AddIndex("pinned", refPinned); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddDir(dir); err != nil {
		t.Fatal(err)
	}
	tag := s.VersionTags()["pinned"]
	for round := 0; round < 3; round++ {
		for _, name := range []string{"file", "pinned"} {
			h, err := s.Acquire(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
		}
		rawNew, _ := pesBytes(t, int64(62+round), 80, 20, 400)
		writePes(t, filepath.Join(dir, "pinned.pes"), rawNew)
		if err := s.Refresh(); err != nil {
			t.Fatal(err)
		}
	}

	h, err := s.Acquire(ctx, "pinned")
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, h.Index(), refPinned)
	if h.VersionTag() != tag || h.Generation() != 1 {
		t.Fatalf("pinned entry moved: tag %q (was %q), generation %d", h.VersionTag(), tag, h.Generation())
	}
	h.Release()
	e := entryInfo(t, s, "pinned")
	if !e.Loaded || e.Evictions != 0 || e.Swaps != 0 || e.Loads != 0 {
		t.Fatalf("pinned entry was evicted, swapped or reloaded: %+v", e)
	}
	if f := entryInfo(t, s, "file"); f.Loaded || f.Evictions != 3 {
		t.Fatalf("file entry under a 1-byte budget: %+v, want evicted after each of 3 loads", f)
	}
	if st := s.Snapshot(); st.LoadedBytes != 0 {
		t.Fatalf("pinned index charged to the budget: %d bytes", st.LoadedBytes)
	}
}

// TestPinnedIndexShadowsInFlightLoad registers a pinned index while a
// first load of the scanned file of the same name is in flight: the
// loader must discard what it decoded and hand back the pinned index,
// leaving nothing charged to the budget.
func TestPinnedIndexShadowsInFlightLoad(t *testing.T) {
	dir := t.TempDir()
	raw, _ := pesBytes(t, 70, 60, 15, 300)
	writePes(t, filepath.Join(dir, "shared.pes"), raw)
	_, refPinned := pesBytes(t, 71, 50, 12, 250)

	s := New(Options{})
	defer s.Close()
	if _, err := s.AddDir(dir); err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	s.loadFn = func(path string) (*generation, dims, error) {
		close(started)
		<-release
		return loadGeneration(path)
	}
	type result struct {
		h   *Handle
		err error
	}
	done := make(chan result, 1)
	go func() {
		h, err := s.Acquire(context.Background(), "shared")
		done <- result{h, err}
	}()
	<-started
	if err := s.AddIndex("shared", refPinned); err != nil {
		t.Fatal(err)
	}
	close(release)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	sameAnswers(t, r.h.Index(), refPinned)
	r.h.Release()
	if st := s.Snapshot(); st.LoadedBytes != 0 || st.Entries != 1 {
		t.Fatalf("discarded load left state behind: %+v", st)
	}
}
