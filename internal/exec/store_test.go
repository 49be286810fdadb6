package exec_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exec"
)

// diskEntries lists the content-addressed entry files in a store dir.
func diskEntries(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.f90"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestDiskStoreColdThenWarm: a cold store compiles and persists; a second
// store over the same directory (a fresh process, as far as the store can
// tell) serves every variant from disk with 0 compiles.
func TestDiskStoreColdThenWarm(t *testing.T) {
	dir := t.TempDir()
	srcs := []string{
		fmt.Sprintf(cacheKernel, 10, 10),
		fmt.Sprintf(cacheKernel, 11, 11),
		fmt.Sprintf(cacheKernel, 12, 12),
	}

	cold, err := exec.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range srcs {
		if _, err := cold.Get(src); err != nil {
			t.Fatal(err)
		}
	}
	if st := cold.Stats(); st.Compiled != 3 || st.DiskHits != 0 || st.Corrupt != 0 {
		t.Fatalf("cold stats = %+v, want 3 compiles and no disk hits", st)
	}
	if got := len(diskEntries(t, dir)); got != 3 {
		t.Fatalf("%d disk entries after cold run, want 3", got)
	}

	// Entries are keyed by the content hash of what they hold.
	for _, src := range srcs {
		key := exec.KeyOf(src)
		b, err := os.ReadFile(filepath.Join(dir, key.String()+".f90"))
		if err != nil {
			t.Fatalf("entry for %s missing: %v", key, err)
		}
		if string(b) != src {
			t.Fatalf("entry %s does not hold its variant source", key)
		}
	}

	warm, err := exec.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range srcs {
		if _, err := warm.Get(src); err != nil {
			t.Fatal(err)
		}
	}
	if st := warm.Stats(); st.Compiled != 0 || st.DiskHits != 3 {
		t.Fatalf("warm stats = %+v, want 0 compiles and 3 disk hits", st)
	}

	// Within one store, repeat lookups are memory hits, not disk reads.
	if _, err := warm.Get(srcs[0]); err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Hits != 1 {
		t.Fatalf("warm repeat stats = %+v, want 1 memory hit", st)
	}
}

// TestDiskStoreMemoryLayerIdentity: within one store, a repeat lookup
// returns the identical compiled artifact (the disk layer sits behind the
// memory layer, it does not replace it).
func TestDiskStoreMemoryLayerIdentity(t *testing.T) {
	store, err := exec.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := fmt.Sprintf(cacheKernel, 20, 20)
	p1, err := store.Get(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := store.Get(src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("repeat lookup returned a different compiled artifact")
	}
}

// TestDiskStoreDetectsCorruption: a truncated or bit-flipped entry must
// fail the checksum, count as corrupt, be recompiled from the requested
// source, and be rewritten valid — never trusted.
func TestDiskStoreDetectsCorruption(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncate", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bitflip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/3] ^= 0x40
			return c
		}},
	}
	for i, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			src := fmt.Sprintf(cacheKernel, 30+i, 30+i)
			entry := filepath.Join(dir, exec.KeyOf(src).String()+".f90")

			seed, err := exec.NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := seed.Get(src); err != nil {
				t.Fatal(err)
			}

			b, err := os.ReadFile(entry)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(entry, tc.mut(b), 0o644); err != nil {
				t.Fatal(err)
			}

			store, err := exec.NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := store.Get(src); err != nil {
				t.Fatal(err)
			}
			st := store.Stats()
			if st.Corrupt != 1 {
				t.Fatalf("stats = %+v, want the corrupt entry counted", st)
			}
			if st.Compiled != 1 || st.DiskHits != 0 {
				t.Fatalf("stats = %+v, want a recompile instead of a disk hit", st)
			}
			// The rewritten entry must be valid again.
			got, err := os.ReadFile(entry)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != src {
				t.Fatal("corrupt entry was not rewritten with the variant source")
			}
			fresh, err := exec.NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.Get(src); err != nil {
				t.Fatal(err)
			}
			if st := fresh.Stats(); st.DiskHits != 1 || st.Corrupt != 0 {
				t.Fatalf("post-rewrite stats = %+v, want a clean disk hit", st)
			}
		})
	}
}

// TestDiskStorePutWarmsWithoutCompiling: Put persists the variant for
// other workers without compiling it here; a later store over the same
// directory serves it as a disk hit.
func TestDiskStorePutWarmsWithoutCompiling(t *testing.T) {
	dir := t.TempDir()
	src := fmt.Sprintf(cacheKernel, 40, 40)

	producer, err := exec.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := producer.Put(src); err != nil {
		t.Fatal(err)
	}
	if st := producer.Stats(); st.Compiled != 0 {
		t.Fatalf("Put compiled: stats = %+v", st)
	}
	if got := len(diskEntries(t, dir)); got != 1 {
		t.Fatalf("%d disk entries after Put, want 1", got)
	}

	consumer, err := exec.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := consumer.Get(src); err != nil {
		t.Fatal(err)
	}
	if st := consumer.Stats(); st.Compiled != 0 || st.DiskHits != 1 {
		t.Fatalf("consumer stats = %+v, want a disk hit", st)
	}
}

// TestDiskStoreBadSourceNotPersisted: a variant that fails to compile must
// not be written to disk — the store persists knowledge, not garbage.
func TestDiskStoreBadSourceNotPersisted(t *testing.T) {
	dir := t.TempDir()
	store, err := exec.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := "program broken\n  this is not fortran at all\n"
	if _, err := store.Get(bad); err == nil {
		t.Fatal("compiling garbage succeeded")
	}
	if got := len(diskEntries(t, dir)); got != 0 {
		t.Fatalf("%d disk entries persisted for a non-compiling variant", got)
	}
}

// TestDiskStoreSurvivesItsDirectory: with the directory removed under an
// open store no durable write can land, yet every Get answers with the
// compiled program — first sight or repeat — and a verdict is still known to
// this process; the stats count each write that was lost.
func TestDiskStoreSurvivesItsDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	store, err := exec.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	srcs := []string{fmt.Sprintf(cacheKernel, 30, 30), fmt.Sprintf(cacheKernel, 31, 31)}
	for round := 0; round < 2; round++ {
		for _, src := range srcs {
			if p, err := store.Get(src); err != nil || p == nil {
				t.Fatalf("round %d: Get = %v, %v; want the compiled program", round, p, err)
			}
		}
	}
	key := exec.KeyOf(srcs[0])
	store.MarkVerified(key)
	if !store.Verified(key) {
		t.Fatal("a verdict recorded while the directory is gone is not known to the store")
	}
	want := exec.StoreStats{Compiled: 2, Hits: 2, LostWrites: 3}
	if st := store.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v (two lost entries, one lost marker)", st, want)
	}
}

// TestDiskStoreNeedsADir: a disk store opens only where it is told to; no
// directory is an error, never a default location.
func TestDiskStoreNeedsADir(t *testing.T) {
	if store, err := exec.NewDiskStore(""); err == nil {
		t.Fatalf("NewDiskStore(\"\") = %v, want an error", store)
	}
}

// TestVerifyLedger: both built-in stores carry the verified-hash side table
// every VariantStore keeps, and the disk store's markers survive a "process
// restart" (a second store instance over the same directory).
func TestVerifyLedger(t *testing.T) {
	key := exec.KeyOf("program bytes")
	other := exec.KeyOf("different bytes")

	t.Run("mem", func(t *testing.T) {
		var store exec.VariantStore = exec.NewMemStore()
		if store.Verified(key) {
			t.Fatal("fresh ledger claims a key verified")
		}
		store.MarkVerified(key)
		if !store.Verified(key) {
			t.Error("marked key not reported verified")
		}
		if store.Verified(other) {
			t.Error("unmarked key reported verified")
		}
	})

	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		open := func() exec.VariantStore {
			d, err := exec.NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		s1 := open()
		if s1.Verified(key) {
			t.Fatal("fresh ledger claims a key verified")
		}
		s1.MarkVerified(key)
		if !s1.Verified(key) {
			t.Error("marked key not reported verified in-process")
		}

		// A second store over the same directory models a later process:
		// the durable marker must carry the verdict across.
		s2 := open()
		if !s2.Verified(key) {
			t.Error("durable marker not honored by a fresh store instance")
		}
		if s2.Verified(other) {
			t.Error("unmarked key reported verified")
		}
	})
}
